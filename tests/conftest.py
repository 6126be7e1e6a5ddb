import io

import numpy as np
import pytest

from offlang import corpus, pool

# one "[PASS]/[FAIL] criterion N: ..." line per acceptance criterion,
# echoed after the run so pytest's capture can't swallow them
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

OLID_FIXTURE = """id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c
1\t@USER @USER She is terrible!\tOFF\tTIN\tIND
2\t@USER happy monday folks\tNOT\tNULL\tNULL
3\tthis game is awful #rigged\tOFF\tUNT\tNULL
4\t@USER @USER @USER look at URL now\tNOT\tNULL\tNULL
5\twhat a goal! (unreal)\tNOT\tNULL\tNULL
6\t@USER you lot are a disgrace\tOFF\tTIN\tGRP
7\tthe refs cheated us again\tOFF\tTIN\tOTH
8\t@USER good point, thanks\tNOT\tNULL\tNULL
9\tHow is this even allowed?\tOFF\tUNT\tNULL
10\t@USER @USER totally agree with you\tNOT\tNULL\tNULL
11\tshe ruined the whole show\tOFF\tTIN\tIND
12\tnice weather today :)\tNOT\tNULL\tNULL
13\t@USER that crew is hopeless\tOFF\tTIN\tGRP
14\tcan't believe the council did this\tOFF\tTIN\tOTH
15\t@USER see you tomorrow\tNOT\tNULL\tNULL
16\tabsolute garbage performance\tOFF\tUNT\tNULL
17\t@USER @USER the park was lovely\tNOT\tNULL\tNULL
18\the keeps lying to everyone\tOFF\tTIN\tIND
19\tweekend plans anyone?\tNOT\tNULL\tNULL
20\tthose fans behaved disgracefully\tOFF\tTIN\tGRP
"""


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every forked pool made: `pool._pooled`'s `workers`."""
    made = []
    pooled = pool._pooled

    def counting(fn, items, workers):
        made.append(workers)
        return pooled(fn, items, workers)

    monkeypatch.setattr(pool, "_pooled", counting)
    return made


@pytest.fixture
def olid_records():
    return corpus.parse_olid(io.StringIO(OLID_FIXTURE))


@pytest.fixture
def olid_file(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text(OLID_FIXTURE, encoding="utf-8")
    return path


def make_keyword_dataset(n: int, seed: int, n_fillers: int = 30, positive_rate: float = 0.5):
    """Tweets whose label is presence of a trigger token."""
    rng = np.random.default_rng(seed)
    fillers = [f"w{i}" for i in range(n_fillers)]
    triggers = ["alpha", "beta", "gamma"]
    texts, labels = [], []
    for _ in range(n):
        toks = list(rng.choice(fillers, size=int(rng.integers(5, 12))))
        y = int(rng.random() < positive_rate)
        if y:
            toks[int(rng.integers(0, len(toks)))] = triggers[int(rng.integers(0, 3))]
        texts.append(" ".join(toks))
        labels.append(y)
    return texts, labels
