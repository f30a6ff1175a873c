from hypothesis import strategies as st

from spherebraid.words import BraidWord, named_element


def braid_letters(n, max_len):
    """Letter lists of braid words on n strands, at most max_len letters long."""
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    return st.lists(st.sampled_from(alphabet), max_size=max_len)


def seeded_products(n, rng, count):
    """`count` factor lists on n strands, each of 1 to 4 words: half twists and their
    inverses (odd Delta-powers), alpha-words, the empty word and short random words."""
    x = named_element("half_twist", n)
    pool = [x, x.inverse(), BraidWord(n), named_element("alpha0", n), named_element("alpha1", n)]
    if n >= 3:
        pool += [named_element("alpha2", n), named_element("alpha2", n).inverse()]
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    products = []
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                factors.append(rng.choice(pool))
            else:
                factors.append(BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))))
        products.append(factors)
    return products
