"""Reply checkers.  Each returns a list of problems; an empty list passes.

They read only the reply text and what the generator knows about the
input, and compare against `oracle`; they never call twobridge.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import cached_property

import oracle
from workloads import NAMED, Call, Workload


class KnotFacts:
    """Oracle values of one knot, keyed by its even Schubert form."""

    def __init__(self, alpha: int, beta: int):
        self.alpha, self.beta = alpha, beta
        self.entries = oracle.conway_entries(alpha, beta)
        self.genus = len(self.entries) // 2
        self.delta = oracle.alexander_coeffs(self.entries)
        self.sigma = oracle.signature_from_entries(self.entries)

    @cached_property
    def slopes(self) -> dict[int, int]:
        return oracle.slope_weights(self.alpha, self.beta)


class Checker:
    def __init__(self, workload: Workload):
        self.workload = workload
        self._facts: dict[tuple[int, int], KnotFacts] = {}

    def facts(self, alpha: int, beta: int) -> KnotFacts:
        key = (alpha, beta)
        if key not in self._facts:
            self._facts[key] = KnotFacts(alpha, beta)
        return self._facts[key]

    def check(self, call: Call, stdout: str) -> list[str]:
        try:
            if self.workload.census_n:
                return self._census(stdout)
            doc = json.loads(stdout)
            problems = _envelope(doc, self.workload.command)
            if problems:
                return problems
            payload = doc["payload"]
            problems = self._knot(call, payload)
            if problems:
                return problems
            body = {"obstruct": self._obstruct, "alexander": self._alexander,
                    "casson": self._casson}[self.workload.command]
            return body(call, payload)
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            return [f"unreadable reply: {type(exc).__name__}: {exc}"]

    def _knot(self, call: Call, payload: dict) -> list[str]:
        """schubert is the smaller even representative of the input's class,
        and `mirrored` is set exactly when the input beta was odd."""
        alpha, beta = payload["schubert"]["alpha"], payload["schubert"]["beta"]
        problems = []
        if alpha != call.alpha:
            problems.append(f"alpha {alpha}, input has {call.alpha}")
        elif oracle.preferred(alpha, beta) != (beta, False):
            problems.append(f"S({alpha},{beta}) is not the smaller even representative")
        elif call.beta:
            want_beta, want_mirror = oracle.preferred(call.alpha, call.beta)
            if (beta, payload["mirrored"]) != (want_beta, want_mirror):
                problems.append(f"schubert/mirrored {beta}/{payload['mirrored']}, want {want_beta}/{want_mirror}")
        elif beta not in oracle.class_members(alpha, NAMED[call.argv[1]][1]):
            problems.append(f"S({alpha},{beta}) does not present {call.argv[1]}")
        return problems

    def _report(self, report: dict, crossings: int) -> list[str]:
        """One obstruct report: the tier rule on its own fields, then every
        field against the oracle."""
        alpha, beta = report["schubert"]["alpha"], report["schubert"]["beta"]
        facts = self.facts(alpha, beta)
        delta_second, sigma = report["delta_second"], report["sigma"]
        diff = oracle.parse_rational(report["casson_difference"])
        problems = []
        verdict = oracle.tier_verdict(delta_second, sigma, diff)
        if report["verdict"] != verdict:
            problems.append(f"verdict {report['verdict']} breaks the tier rule ({verdict})")
        if report["crossing_number"] != crossings:
            problems.append(f"crossing number {report['crossing_number']}, simple CF sums to {crossings}")
        want_second = _second_derivative(facts.delta, facts.genus)
        if delta_second != want_second:
            problems.append(f"delta'' {delta_second}, want {want_second}")
        if sigma != facts.sigma:
            problems.append(f"sigma {sigma}, want {facts.sigma}")
        want_diff = oracle.cosmetic_difference(facts.slopes)
        if diff != want_diff:
            problems.append(f"casson difference {diff}, want {want_diff}")
        return problems

    def _obstruct(self, call: Call, payload: dict) -> list[str]:
        return self._report(payload, call.crossings)

    def _census(self, stdout: str) -> list[str]:
        n = self.workload.census_n
        problems = []
        counts: Counter = Counter()
        seen_classes = set()
        previous = None
        for line in stdout.splitlines():
            doc = json.loads(line)
            env = _envelope(doc, "obstruct")
            if env:
                return env
            report = doc["payload"]
            alpha, beta = report["schubert"]["alpha"], report["schubert"]["beta"]
            if oracle.preferred(alpha, beta) != (beta, False):
                problems.append(f"S({alpha},{beta}) is not the smaller even representative")
                continue
            if previous is not None and (alpha, beta) <= previous:
                problems.append(f"S({alpha},{beta}) out of order")
            previous = (alpha, beta)
            key = (alpha, min(oracle.class_members(alpha, beta)))
            if key in seen_classes:
                problems.append(f"S({alpha},{beta}) reported twice")
            seen_classes.add(key)
            crossings = sum(oracle.simple_tail(alpha, beta))
            counts[report["crossing_number"]] += 1
            problems.extend(self._report(report, crossings))
        want = {k: oracle.ernst_sumners(k) for k in range(3, n + 1)}
        if dict(counts) != want:
            problems.append(f"knots per crossing number {dict(sorted(counts.items()))}, Ernst-Sumners {want}")
        return problems

    def _alexander(self, call: Call, payload: dict) -> list[str]:
        alpha, beta = payload["schubert"]["alpha"], payload["schubert"]["beta"]
        facts = self.facts(alpha, beta)
        delta = {int(k): c for k, c in payload["alexander"].items()}
        sigma = payload["signature"]
        problems = []
        if any(delta.get(-k, 0) != c for k, c in delta.items()):
            problems.append("Delta is not symmetric")
        if sum(delta.values()) != 1:
            problems.append(f"Delta(1) = {sum(delta.values())}")
        at_minus_one = sum(c * (-1) ** (k % 2) for k, c in delta.items())
        if abs(at_minus_one) != alpha:
            problems.append(f"|Delta(-1)| = {abs(at_minus_one)}, alpha = {alpha}")
        if payload["delta_second_at_one"] != sum(c * k * (k - 1) for k, c in delta.items()):
            problems.append("delta_second_at_one is not sum c k (k-1) over Delta")
        if sigma % 2 or abs(sigma) > 2 * facts.genus:
            problems.append(f"sigma {sigma} is odd or exceeds 2g = {2 * facts.genus}")
        if (at_minus_one > 0) != (sigma % 4 == 0):
            problems.append(f"sign of Delta(-1) = {at_minus_one} disagrees with sigma = {sigma} mod 4")
        want = {k - facts.genus: c for k, c in enumerate(facts.delta) if c}
        if delta != want:
            problems.append("Delta differs from the continuant recurrence")
        if sigma != facts.sigma:
            problems.append(f"sigma {sigma}, want {facts.sigma}")
        return problems

    def _casson(self, call: Call, payload: dict) -> list[str]:
        alpha, beta = payload["schubert"]["alpha"], payload["schubert"]["beta"]
        facts = self.facts(alpha, beta)
        p, q = call.p, call.q
        p_eff = -p if payload["mirrored"] else p
        norm = oracle.parse_rational(payload["total_seminorm"])
        lam = oracle.parse_rational(payload["lambda"])
        problems = []
        if payload["slope"] != f"{p}/{q}":
            problems.append(f"slope {payload['slope']}, asked {p}/{q}")
        want_norm = oracle.seminorm(facts.slopes, p_eff, q)
        if norm != want_norm:
            problems.append(f"seminorm {norm}, want {want_norm}")
        want_lam = norm / 2 if p % 2 == 0 else norm / 2 - Fraction(alpha - 1, 4)
        if lam != want_lam:
            problems.append(f"lambda {lam} breaks the parity formula ({want_lam})")
        p_prime = abs(p) if p % 2 else abs(p) // 2
        ok = p != 0 and oracle.no_root_of_unity(facts.delta, p_prime)
        if q == 1 and p % 2 == 0 and p_eff in facts.slopes:
            ok = False
        if payload["hypotheses_ok"] is not ok:
            problems.append(f"hypotheses_ok {payload['hypotheses_ok']}, want {ok}")
        return problems


def _envelope(doc: dict, command: str) -> list[str]:
    if doc.get("schema_version") != "1" or doc.get("command") != command:
        return [f"bad envelope {doc.get('schema_version')!r}/{doc.get('command')!r}"]
    return []


def _second_derivative(coeffs: list[int], genus: int) -> int:
    return sum(c * (k - genus) * (k - genus - 1) for k, c in enumerate(coeffs))
