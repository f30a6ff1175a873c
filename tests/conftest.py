import pytest

from spherebraid.freegroup import EndoOnBasis, FreeWord, _extend


def reduce(letters, rank: int) -> FreeWord:
    """Free reduction of a raw letter list; the result is independent of cancellation order."""
    out: list[int] = []
    for k in letters:
        if k == 0 or abs(k) > rank:
            raise ValueError(f"letter {k} out of range for rank {rank}")
        _extend(out, [k], [-k])
    return FreeWord(rank, tuple(out))


def compose(e1: EndoOnBasis, e2: EndoOnBasis) -> EndoOnBasis:
    """The endomorphism "e1 first, then e2": each generator g maps to e2(e1(g))."""

    def image(word):
        letters: list[int] = []
        for k in word.letters:
            img = e2.images[abs(k) - 1].letters
            letters += img if k > 0 else [-x for x in reversed(img)]
        return reduce(letters, e2.rank)

    return EndoOnBasis(e1.rank, tuple(image(img) for img in e1.images))


@pytest.fixture(scope="session")
def free_reduce():
    return reduce


@pytest.fixture(scope="session")
def compose_endos():
    return compose
