from hypothesis import strategies as st


def braid_letters(n, max_len):
    """Letter lists of braid words on n strands, at most max_len letters long."""
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    return st.lists(st.sampled_from(alphabet), max_size=max_len)
