import pytest

from limitlab import sigma1


@pytest.fixture
def fresh_sigma1(monkeypatch):
    """Empty sigma1 memos for one test: classifications, leq matrices,
    bounded ages, interned age fragments, witness candidates and
    small-fragment verdicts.  A test that counts calls sees none answered
    by an earlier test's memo; the process's own memos are back once it
    ends.  Returns the memos' names."""
    memos = ("_classifications", "_leq_matrices", "_ages", "_fragments",
             "_candidates", "_verdicts")
    for memo in memos:
        monkeypatch.setattr(sigma1, memo, {})
    return memos
