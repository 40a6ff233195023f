"""Adversarial inputs, each run as a child process under an address-space
limit set in the child alone.  Every run must finish within its bound or
exit 2 with a message that names the limit; exit 3 (a bug, or memory
exhausted) is never acceptable.

The child times `cli.run` itself, so the interpreter's start-up does not
count, and reports its own peak RSS.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# argv: address-space limit in MiB, then the CLI arguments
CHILD = """
import json, resource, sys, time
limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from twobridge.cli import run
start = time.perf_counter()
code = run(sys.argv[2:])
seconds = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "seconds": seconds, "peak_mb": peak_mb}), file=sys.stderr)
sys.exit(code)
"""

LIMIT_MB = 1024


def _run(argv: list[str]) -> tuple[dict, str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(LIMIT_MB), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    *messages, report = proc.stderr.strip().splitlines()
    result = json.loads(report)
    assert result["code"] == proc.returncode
    return result, proc.stdout, "\n".join(messages)


def _conway(entries) -> str:
    return "C[" + ",".join(map(str, entries)) + "]"


def _big_entries(seed: int, genus: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.choice((-2, 2)) * rng.randint(10**19, 10**29) for _ in range(2 * genus)]


ALPHA_4000 = 10**4000 + 1  # S(alpha, 2) = [a_1; 2], a_1 = 5 * 10^3999


@pytest.mark.parametrize("argv", [
    ["obstruct", f"S({ALPHA_4000},2)", "--json"],
    ["casson", f"S({ALPHA_4000},2)", "1/1", "--json"],
])
def test_a_4000_digit_first_term_is_one_shift(argv):
    # the walk that stepped through a_1 one term at a time exhausted
    # memory here (exit 3)
    result, out, _ = _run(argv)
    assert result["code"] == 0
    assert result["seconds"] < 0.1
    # weights 2, a_1 - 1 and a_1 at slopes -2 a_1, 0 and 4
    payload = json.loads(out)["payload"]
    a1 = (ALPHA_4000 - 1) // 2
    if argv[0] == "obstruct":
        assert payload["casson_difference"] == (2 - a1) // 2
    else:  # ||1/1|| = (-1 + 2 (2 a_1 + 1) + (a_1 - 1) + 3 a_1) / 2
        assert payload["total_seminorm"] == 4 * a1
        assert payload["lambda"] == 2 * a1 - a1 // 2


def test_c4_2000_finishes_in_little_memory():
    # genus 1,000: the sparse route keeps three states, not every one
    result, out, _ = _run(["obstruct", _conway([4] * 2000)])
    assert result["code"] == 0
    assert result["peak_mb"] < 100
    assert "verdict" in out


@pytest.mark.parametrize("argv", [
    ["obstruct", _conway([4] * 10000)],  # genus 5,000, the genus limit
    # genus 16 with 20- to 30-digit entries: millions of distinct slopes
    ["obstruct", _conway(_big_entries(16, 16))],
])
def test_huge_slope_walks_finish_or_exit_2(argv):
    result, out, err = _run(argv)
    assert result["code"] in (0, 2), err
    assert result["seconds"] < 15
    assert result["peak_mb"] < 400  # the entries held at once are bounded too
    if result["code"] == 2:
        assert "limited to" in err and out == ""


# 4,300 digits each, the most that int() reads by default; 9_27 surgery
# along P/Q has a seminorm and a Casson invariant of more digits
P_4300, Q_4300 = 2 * 10**4299 + 1, 10**4299


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="Python 3.10.0-3.10.6 convert integers of any length")
@pytest.mark.parametrize("argv", [
    ["casson", "9_27", f"{P_4300}/{Q_4300}"],
    ["casson", "9_27", f"{P_4300}/{Q_4300}", "--json"],
    ["info", _conway([4] * 10000)],  # alpha of about 5,700 digits
    ["info", _conway([4] * 10000), "--json"],
])
def test_unprintable_integers_exit_2_with_nothing_written(argv):
    # the text and JSON documents are rendered in full before any byte is written
    result, out, err = _run(argv)
    assert result["code"] == 2, err
    assert out == ""
    assert f"limited to {sys.get_int_max_str_digits()} digits" in err
    assert result["seconds"] < 5


def _two_entries(seed: int, genus: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.choice((-2, 2)) for _ in range(2 * genus)]


@pytest.mark.parametrize("argv", [
    # the packed evaluation alone would take, on x86_64:
    ["alexander", _conway([4] * 6000)],  # genus 3,000, 12,504-bit lanes: 62 s
    ["alexander", _conway(_two_entries(25, 2500)), "--json"],  # 4,744-bit lanes: about 15 s
    ["alexander", _conway(_two_entries(50, 5000))],  # genus 5,000, 9,472-bit lanes: 148 s
])
def test_alexander_past_its_work_limit_exits_2_at_once(argv):
    result, out, err = _run(argv)
    assert result["code"] == 2, err
    assert out == ""
    assert "Alexander polynomials are limited to" in err
    assert result["seconds"] < 2
