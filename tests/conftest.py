import pytest

from limitlab import sigma1


@pytest.fixture
def fresh_sigma1(monkeypatch):
    """Empty sigma1 memos for one test: classifications, leq matrices,
    witness candidates and small-fragment verdicts.  A test that counts
    calls sees none answered by an earlier test's memo; the process's own
    memos are back once it ends."""
    for memo in ("_classifications", "_leq_matrices", "_candidates",
                 "_verdicts"):
        monkeypatch.setattr(sigma1, memo, {})
