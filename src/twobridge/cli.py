"""Command-line interface: exact knot invariants as text or JSON.

Knots are given as a Schubert form ``S(a,b)``, an even Conway form
``C[e1,e2,...]``, a small-knot name like ``9_27``, or ``--kx X`` for the
slice family.  Every numeric JSON field is an exact integer or a string
"p/q"; output is byte-deterministic.

Exit codes: 0 success, 2 bad input or a documented limit (output
integers past the interpreter's digit limit included; the output is
rendered in full before any of it is written), 3 internal error (any
other exception, from this package or not: it means a bug in this
package).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii

from .alexander import (
    _band,
    _coefficients,
    _delta_second,
    _even_diagonal,
    _poly_str,
    conway_even_form,
)
from .casson import SurgerySlope, lambda_surgery
from .errors import DomainError, MeridianError
from .obstruction import (
    CAVEATS,
    KNOT_NAMES,
    NAMED_FORMS,
    Verdict,
    _unsorted_census,
    knot_name,
    obstruct,
)
from .rational import (
    ContinuedFraction,
    ConwayForm,
    SchubertForm,
    _ascii_int,
    cf_eval,
    crossing_number,
    kx_family,
    preferred_form,
    simple_cf,
)
from .slopes import enumerate_bscf

SCHEMA_VERSION = "1"

# [0-9], not \d: \d also matches the digits of other scripts
_SCHUBERT_RE = re.compile(r"^S\((-?[0-9]+),(-?[0-9]+)\)$")
_CONWAY_RE = re.compile(r"^C\[(-?[0-9]+(?:,-?[0-9]+)*)\]$")
_NAME_RE = re.compile(r"^[0-9]+_[0-9]+$")


def _int_arg(text: str) -> int:
    """argparse type for integer options: ASCII digits only."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _spec_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise DomainError(f"number in knot spec too long ({len(digits)} digits)") from None


def parse_knot_spec(text: str) -> SchubertForm:
    """Parse S(a,b), C[...], or a knot-table name into a Schubert form."""
    compact = "".join(text.split())
    m = _SCHUBERT_RE.match(compact)
    if m:
        return SchubertForm(_spec_int(m.group(1)), _spec_int(m.group(2)))
    m = _CONWAY_RE.match(compact)
    if m:
        entries = tuple(_spec_int(e) for e in m.group(1).split(","))
        ConwayForm(entries)  # validates evenness and parity of the length
        value = cf_eval(ContinuedFraction((0,) + entries))
        alpha = value.denominator
        beta = value.numerator % alpha
        return SchubertForm(alpha, beta)
    if _NAME_RE.match(compact):
        form = NAMED_FORMS.get(compact)
        if form is None:
            raise DomainError(f"unknown knot name {compact!r}")
        return form
    raise DomainError(f"cannot parse knot spec {text!r} (want S(a,b), C[...], or a name)")


def _rat(x) -> int | str:
    """Exact JSON value: int when integral, else the string 'p/q'."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _knot_payload(canonical: SchubertForm, mirrored: bool) -> dict:
    return {
        "schubert": {"alpha": canonical.alpha, "beta": canonical.beta},
        "mirrored": mirrored,
        "name": knot_name(canonical),
    }


def _document(command: str, payload) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}


# The keys of _report_payload, which --filter may name.
_REPORT_FIELDS = (
    "name", "schubert", "mirrored", "crossing_number", "delta_second",
    "sigma", "casson_difference", "verdict", "caveats",
)


def _half(twice: int) -> int | str:
    """_rat of twice / 2, without the Fraction."""
    return twice // 2 if twice % 2 == 0 else f"{twice}/2"


def _report_payload(values: tuple) -> dict:
    """The obstruct payload of one knot, from the values of
    obstruction._values."""
    alpha, beta, mirrored, name, crossings, delta_second, sigma, twice, verdict = values
    return {
        "name": name,
        "schubert": {"alpha": alpha, "beta": beta},
        "mirrored": mirrored,
        "crossing_number": crossings,
        "delta_second": delta_second,
        "sigma": sigma,
        "casson_difference": _half(twice),
        "verdict": verdict.value,
        "caveats": list(CAVEATS.get(verdict, ())),
    }


# The JSON text of the fixed parts of a census --jsonl line, as json.dumps
# writes them: the document's head, the knot names, and per verdict its
# value and caveats with the closing braces.
_JSONL_HEAD = json.dumps(_document("obstruct", {}))[:-3]  # all before the payload's "{"
_JSON_NAMES = {None: "null"} | {name: json.dumps(name) for name in KNOT_NAMES.values()}
_JSONL_TAILS = {
    verdict: f'"verdict": {json.dumps(verdict.value)},'
             f' "caveats": {json.dumps(list(CAVEATS.get(verdict, ())))}}}}}'
    for verdict in Verdict
}


def _census_jsonl(values: tuple) -> str:
    """The --jsonl line of one census knot, byte for byte what json.dumps
    gives for _document("obstruct", _report_payload(values)), without
    building the payload."""
    alpha, beta, mirrored, name, crossings, delta_second, sigma, twice, verdict = values
    diff = twice // 2 if twice % 2 == 0 else f'"{twice}/2"'  # as _half
    return (
        f'{_JSONL_HEAD}{{"name": {_JSON_NAMES[name]},'
        f' "schubert": {{"alpha": {alpha}, "beta": {beta}}},'
        f' "mirrored": {"true" if mirrored else "false"}, "crossing_number": {crossings},'
        f' "delta_second": {delta_second}, "sigma": {sigma}, "casson_difference": {diff}, '
        + _JSONL_TAILS[verdict]
    )


# json.dumps with indent runs the pure-Python encoder; _json_text runs the
# C encoder once per container of scalars, whose item separator carries
# the line break and indent of the items (one encoder per indent).
_ENCODERS: dict[str, json.JSONEncoder] = {}
_CONTAINERS = (dict, list, tuple)


def _json_text(value, newline: str = "\n") -> str:
    """The text of json.dumps(value, indent=2), for str-keyed dicts, lists,
    tuples, str, int, bool and None; newline is the line break and indent
    of the value's own line.  A container of containers joins the texts
    of its items."""
    if type(value) is int:
        return int.__repr__(value)
    if not isinstance(value, _CONTAINERS):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    is_dict = isinstance(value, dict)
    if not is_dict and set(map(type, value)) == {int}:
        return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]"
    if not any(map(isinstance, value.values() if is_dict else value, repeat(_CONTAINERS))):
        encoder = _ENCODERS.get(inner) or _ENCODERS.setdefault(
            inner, json.JSONEncoder(check_circular=False, separators=("," + inner, ": "))
        )
        text = encoder.encode(value)
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if is_dict:
        parts = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"


def _kv_text(pairs) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{key.ljust(width)}  {value}\n" for key, value in pairs)


def _holds_long_int(value, bound: int) -> bool:
    """Some int in value (or its dicts, lists, tuples, Fractions) is >= bound in size."""
    if isinstance(value, Fraction):
        value = (value.numerator, value.denominator)
    elif isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, int):
        return abs(value) >= bound
    return isinstance(value, (list, tuple)) and any(_holds_long_int(v, bound) for v in value)


@contextlib.contextmanager
def _printable(*values):
    """Render output in full inside, before any of it is written.  Python
    3.10.7 and later refuse to print ints of more than
    sys.get_int_max_str_digits() digits (ValueError): DomainError when
    one of values, the numbers the output shows, has that many."""
    try:
        yield
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and _holds_long_int(values, 10**limit):
            raise DomainError(
                f"output integers are limited to {limit} digits (the interpreter's limit"
                " for integer string conversion, PYTHONINTMAXSTRDIGITS); this result has more"
            ) from None
        raise


def _resolve_knot(args) -> SchubertForm:
    if getattr(args, "kx", None) is not None:
        return kx_family(args.kx)
    if args.knot is None:
        raise DomainError("no knot given: pass a knot spec or --kx X")
    return parse_knot_spec(args.knot)


def _cmd_info(args) -> int:
    s = _resolve_knot(args)
    canonical, mirrored = preferred_form(s)
    conway = conway_even_form(canonical)
    payload = _knot_payload(canonical, mirrored)
    payload.update(
        {
            "crossing_number": crossing_number(canonical),
            "genus": conway.genus,
            "conway": list(conway.entries),
            "simple_cf": list(simple_cf(canonical.fraction).terms),
        }
    )
    with _printable(payload):
        text = _json_text(_document("info", payload)) + "\n" if args.json else _kv_text(
            [
                ("knot", str(canonical) + (" (mirror of input)" if mirrored else "")),
                ("name", payload["name"] or "-"),
                ("crossing number", payload["crossing_number"]),
                ("genus", payload["genus"]),
                ("conway form", "C[" + ",".join(map(str, payload["conway"])) + "]"),
                ("simple cf", "[" + ",".join(map(str, payload["simple_cf"])) + "]"),
            ]
        )
    sys.stdout.write(text)
    return 0


def _cmd_slopes(args) -> int:
    s = _resolve_knot(args)
    canonical, mirrored = preferred_form(s)
    system = enumerate_bscf(canonical)
    payload = _knot_payload(canonical, mirrored)
    payload.update(
        {
            "records": [
                {
                    "cf": list(rec.cf.terms),
                    "n_plus": rec.n_plus,
                    "n_minus": rec.n_minus,
                    "slope": rec.slope,
                    "weight": rec.weight,
                }
                for rec in system.records
            ],
            "longitude_index": system.longitude_index,
        }
    )
    with _printable(payload):
        if args.json:
            text = _json_text(_document("slopes", payload)) + "\n"
        else:
            lines = [
                f"boundary slopes of {canonical} ({len(system.records)} expansions)\n",
                f"{'cf':<40} {'n+':>3} {'n-':>3} {'N':>5} {'W':>8}\n",
            ]
            for i, rec in enumerate(system.records):
                mark = "  <- longitude" if i == system.longitude_index else ""
                lines.append(
                    f"{str(rec.cf):<40} {rec.n_plus:>3} {rec.n_minus:>3}"
                    f" {rec.slope:>5} {rec.weight:>8}{mark}\n"
                )
            text = "".join(lines)
    sys.stdout.write(text)
    return 0


def _cmd_alexander(args) -> int:
    s = _resolve_knot(args)
    canonical, mirrored = preferred_form(s)
    # one band pass and one packed evaluation, the routes of alexander_poly,
    # signature and alexander_second_derivative; on a knot's diagonal
    # det(M + M^T) is alpha and the signature is the longitude's sign sum
    diagonal = _even_diagonal(canonical.alpha, canonical.beta)
    unit, odd, second, sigma = _band(diagonal)
    coeffs = _coefficients(diagonal, canonical.alpha)
    delta_second = _delta_second(unit, odd, second)
    terms = [(k, c) for k, c in enumerate(coeffs, -(len(diagonal) // 2)) if c]
    payload = _knot_payload(canonical, mirrored)
    with _printable(payload, coeffs, delta_second):
        payload.update(
            {
                "alexander": {str(k): c for k, c in terms},
                "alexander_str": _poly_str(terms),
                "delta_second_at_one": delta_second,
                "signature": sigma,
            }
        )
        text = _json_text(_document("alexander", payload)) + "\n" if args.json else _kv_text(
            [
                ("knot", str(canonical)),
                ("name", payload["name"] or "-"),
                ("alexander polynomial", payload["alexander_str"]),
                ("second derivative at 1", delta_second),
                ("signature", sigma),
            ]
        )
    sys.stdout.write(text)
    return 0


def _cmd_casson(args) -> int:
    s = _resolve_knot(args)
    r = SurgerySlope.parse(args.slope)
    lam = lambda_surgery(s, r)  # rejects the meridian before anything else
    canonical, mirrored = preferred_form(s)
    payload = _knot_payload(canonical, mirrored)
    with _printable(payload, r.p, r.q, lam.seminorm, lam.value):
        payload.update(
            {
                "slope": str(r),
                "total_seminorm": _rat(lam.seminorm),
                "lambda": _rat(lam.value),
                "hypotheses_ok": lam.hypotheses_ok,
                "caveats": list(lam.caveats),
            }
        )
        text = _json_text(_document("casson", payload)) + "\n" if args.json else _kv_text(
            [
                ("knot", str(canonical) + (" (mirror of input)" if mirrored else "")),
                ("slope", str(r)),
                ("total seminorm", payload["total_seminorm"]),
                ("casson invariant", payload["lambda"]),
                ("hypotheses ok", payload["hypotheses_ok"]),
                ("caveats", "; ".join(lam.caveats) or "-"),
            ]
        )
    sys.stdout.write(text)
    return 0


def _parse_filters(filters: list[str]) -> list[tuple[str, str]]:
    """(field, value) pairs from FIELD=VALUE texts, each field a report key."""
    parsed = []
    for f in filters:
        if "=" not in f:
            raise DomainError(f"bad --filter {f!r}, want field=value")
        key, _, value = f.partition("=")
        key = key.strip()
        if key not in _REPORT_FIELDS:
            raise DomainError(f"unknown filter field {key!r}")
        parsed.append((key, value.strip()))
    return parsed


def _matches(payload: dict, filters: list[tuple[str, str]]) -> bool:
    """Every filter value equals its field as Python or as JSON spells it
    (False or false, None or null)."""
    return all(v in (str(payload[k]), json.dumps(payload[k])) for k, v in filters)


def _census_text(values: tuple) -> str:
    """The text line of one census knot."""
    alpha, beta, _, name, crossings, delta_second, sigma, twice, verdict = values
    return (
        f"{name or f'S({alpha},{beta})':<8} S({alpha},{beta})"
        f" crossings={crossings}"
        f" delta''={delta_second} sigma={sigma}"
        f" diff={_half(twice)} {verdict.value}"
    )


def _cmd_obstruct(args) -> int:
    if args.census is not None:
        filters = _parse_filters(args.filter)  # before the census does any work
        array = args.json and not args.jsonl  # --jsonl wins over --json
        # per kept knot its values for a JSON array, else (alpha, beta,
        # finished line); payloads only for --filter, no reports
        rows = []
        for v in _unsorted_census(args.census):
            if filters and not _matches(_report_payload(v), filters):
                continue
            if array:
                rows.append(v)
            else:
                rows.append((v[0], v[1], _census_jsonl(v) if args.jsonl else _census_text(v)))
        rows.sort()  # by (alpha, beta), which no two knots share
        if array and rows:  # one element at a time: census values are small
            head, _, tail = _json_text(_document("obstruct", [0])).rpartition("0")
            for i, v in enumerate(rows):
                element = _json_text(_report_payload(v), "\n    ")
                sys.stdout.write((",\n    " if i else head) + element)
            sys.stdout.write(tail + "\n")
        elif array:
            sys.stdout.write(_json_text(_document("obstruct", [])) + "\n")
        elif rows:  # one call, and no copy of the lines: each is written as it is
            print(*[line for _, _, line in rows], sep="\n")
        return 0
    if args.filter:
        raise DomainError("--filter needs --census")
    s = _resolve_knot(args)
    r = obstruct(s)
    values = (r.knot.alpha, r.knot.beta, r.mirrored, r.name, r.crossing_number,
              r.delta_second, r.sigma, int(2 * r.casson_difference), r.verdict)
    with _printable(values):
        payload = _report_payload(values)  # the report's values, as _values gives them
        json_out = args.json or args.jsonl
        text = _json_text(_document("obstruct", payload)) + "\n" if json_out else _kv_text(
            [
                ("knot", f"S({payload['schubert']['alpha']},{payload['schubert']['beta']})"),
                ("name", payload["name"] or "-"),
                ("crossing number", payload["crossing_number"]),
                ("delta'' at 1", payload["delta_second"]),
                ("signature", payload["sigma"]),
                ("casson difference", payload["casson_difference"]),
                ("verdict", payload["verdict"]),
                ("caveats", "; ".join(payload["caveats"]) or "-"),
            ]
        )
    sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twobridge",
        description="Exact invariants and cosmetic-surgery obstructions for two-bridge knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_knot_args(p):
        p.add_argument("knot", nargs="?", help="knot spec: S(a,b), C[e1,...], or a name like 9_27")
        p.add_argument("--kx", type=_int_arg, metavar="X", help="use the slice-family knot with parameter X")
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    p_info = sub.add_parser("info", help="normal forms, crossing number, genus")
    add_knot_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_slopes = sub.add_parser("slopes", help="boundary slope table")
    add_knot_args(p_slopes)
    p_slopes.set_defaults(func=_cmd_slopes)

    p_alex = sub.add_parser("alexander", help="Alexander polynomial, delta''(1), signature")
    add_knot_args(p_alex)
    p_alex.set_defaults(func=_cmd_alexander)

    p_casson = sub.add_parser("casson", help="SL(2,C) Casson invariant of a surgery")
    add_knot_args(p_casson)
    p_casson.add_argument("slope", help="surgery slope p/q (1/0 is rejected)")
    # let negative slopes like -1/2 pass as positionals
    p_casson._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p_casson.set_defaults(func=_cmd_casson)

    p_obs = sub.add_parser("obstruct", help="cosmetic surgery obstruction verdict")
    add_knot_args(p_obs)
    p_obs.add_argument("--census", type=_int_arg, metavar="N", help="report every knot of at most N crossings")
    p_obs.add_argument("--filter", action="append", default=[], metavar="FIELD=VALUE",
                       help="keep census reports with FIELD equal to VALUE (repeatable)")
    p_obs.add_argument("--jsonl", action="store_true", help="one JSON document per line (census)")
    p_obs.set_defaults(func=_cmd_obstruct)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DomainError, MeridianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # an exception may carry no message, as MemoryError() does
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
