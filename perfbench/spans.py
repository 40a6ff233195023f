"""Spans around twobridge's public functions, recorded from outside the package.

`Tracer.install` wraps each function named in LAYERS and rebinds the
wrapper under every name that any loaded `twobridge` module holds for
the original (modules import each other by name, so `obstruction.
alexander_poly` and `casson.enumerate_bscf` must be rebound too).
`Tracer.uninstall` puts the originals back.

A span is (id, name, start_ns, end_ns, parent id, op id, extra).  Spans
stay in memory until the run ends.  Each thread keeps its own stack of
open spans; a span opened on a thread with an empty stack (a census pool
worker) takes the innermost open span of the installing thread as its
parent, which is the census span.  `extra` holds the size counter of the
call (records returned, genus, p', knots), taken from its arguments or
result.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time


def _records(args, result):
    return len(result.records), len({rec.slope for rec in result.records})


PACKAGE = "twobridge"

# (module, function, extra(args, result) or None)
LAYERS = (
    ("cli", "run", None),
    ("rational", "preferred_form", None),
    ("rational", "crossing_number", None),
    ("alexander", "conway_even_form", None),
    ("alexander", "seifert_from_conway", lambda args, result: result.genus),
    ("alexander", "alexander_poly", None),
    ("alexander", "signature", None),
    ("slopes", "enumerate_bscf", _records),
    ("casson", "root_of_unity_check", lambda args, result: args[1]),
    ("casson", "total_seminorm", None),
    ("casson", "cosmetic_difference", None),
    ("casson", "lambda_surgery", None),
    ("obstruction", "census", lambda args, result: len(result)),
    ("obstruction", "obstruct", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self._local.stack = self._home_stack
        for module_name, func_name, extra in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, extra)
            for name, loaded in list(sys.modules.items()):
                if name != PACKAGE and not name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)
                        self._rebound.append((loaded, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, name, func, extra):
        local, home, ids, spans = self._local, self._home_stack, self._ids, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (home[-1] if home else 0)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                (span_id, name, start, end, parent, self.op_id,
                 extra(args, result) if extra else None)
            )
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\textra\n")
            for span in self.spans:
                out.write("\t".join(str(x) for x in span) + "\n")


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per layer: calls, total ms, self ms, and the spans' extras.

    Self time is the span's duration minus the union of its children's
    intervals, clipped to the span; census children run on pool threads
    and overlap, so a plain sum would overcount.
    """
    by_id = {span[0]: span for span in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out: dict[str, dict] = {}
    for span_id, name, start, end, parent, _op, extra in spans:
        layer = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "extras": [], "parents": {}})
        layer["calls"] += 1
        layer["ns"] += end - start
        kids = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ()) if e > start and s < end]
        layer["self_ns"] += end - start - _union_ns(kids)
        if extra is not None:
            layer["extras"].append(extra)
        parent_name = by_id[parent][1] if parent in by_id else None
        layer["parents"][parent_name] = layer["parents"].get(parent_name, 0) + 1
    return out
