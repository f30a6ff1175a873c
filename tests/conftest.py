import sys

import pytest

from spherebraid.freegroup import EndoOnBasis, FreeWord, _artin_images, _extend


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


@pytest.fixture
def artin_body_calls():
    """((strand_count, letters, budget), result) for each call into the body
    under the `_artin_images` memo, that is for each action computed, not
    served from the memo; result is None for a call that raised.  The memo
    starts empty and is emptied again afterwards."""
    body = _artin_images.__wrapped__.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is body:
            key = (frame.f_locals["strand_count"], frame.f_locals["letters"], frame.f_locals["budget"])
            calls.append((key, arg))

    _artin_images.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
        _artin_images.cache_clear()
