import random

from helpers import ex44, hamming74, random_code
from jacobiforge import verify_all
from jacobiforge.verify import worker_count


def test_verify_all_golden_code():
    lines, ok = verify_all(ex44(), r_max=3, m_max=2, t_max=2, seed=0)
    assert ok
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].startswith("verify: all checks passed")
    assert "seed=0" in lines[-1]


def test_verify_all_hamming():
    lines, ok = verify_all(hamming74(), r_max=2, m_max=2, t_max=2, seed=1)
    assert ok, [l for l in lines if l.startswith("FAIL")]


def test_verify_all_random_ternary_code():
    rng = random.Random(84)
    while True:
        code = random_code(rng, 3, 8, 4)
        if code.k == 4:
            break
    lines, ok = verify_all(code, r_max=2, m_max=2, t_max=2, seed=3)
    assert ok, [l for l in lines if l.startswith("FAIL")]


def test_verify_all_deterministic_lines():
    a, _ = verify_all(ex44(), seed=5)
    b, _ = verify_all(ex44(), seed=5)
    assert a == b
    c, _ = verify_all(ex44(), seed=6)
    assert c != a  # different reference-set samples


def test_worker_count_is_clamped_to_items_and_cpus():
    assert worker_count(2, 131, cpus=2) == 2
    assert worker_count(10 ** 6, 131, cpus=2) == 2
    assert worker_count(8, 3, cpus=16) == 3
    assert worker_count(0, 5, cpus=4) == 1
    assert worker_count(-3, 5, cpus=4) == 1
    assert 1 <= worker_count(4, 10) <= 4


def test_verify_all_same_lines_for_any_jobs():
    code = hamming74()
    one, _ = verify_all(code, r_max=1, m_max=1, t_max=1, seed=2, jobs=1)
    many, _ = verify_all(code, r_max=1, m_max=1, t_max=1, seed=2, jobs=10 ** 6)
    assert one == many
