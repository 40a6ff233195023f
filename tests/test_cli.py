import hashlib
import json
import time
from fractions import Fraction

import pytest

from twobridge import (
    CENSUS_MAX_CROSSINGS,
    MAX_EXPANSION_TERMS,
    MAX_GENUS,
    Equivalence,
    NormalizationError,
    SchubertForm,
    equivalent,
)
from twobridge.cli import parse_knot_spec, run


def _json_out(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


class TestParseKnotSpec:
    def test_schubert(self):
        assert parse_knot_spec("S(49,19)") == SchubertForm(49, 19)
        assert parse_knot_spec(" S ( 49 , 19 ) ") == SchubertForm(49, 19)

    def test_conway(self):
        assert parse_knot_spec("C[2,2]") == SchubertForm(5, 2)
        assert parse_knot_spec("C[2,2,-2,2,2,-2]") == SchubertForm(49, 18)
        # negative leading entry lands on the mirror fraction
        assert parse_knot_spec("C[-2,-2]") == SchubertForm(5, 3)

    def test_name(self):
        assert parse_knot_spec("9_27") == SchubertForm(49, 19)

    def test_rejects(self):
        from twobridge import DomainError

        for bad in ["S(4,1)", "S(9,3)", "C[2,3]", "C[2]", "11_1", "nonsense"]:
            with pytest.raises(DomainError):
                parse_knot_spec(bad)


class TestInfo:
    def test_927(self, capsys):
        doc = _json_out(capsys, ["info", "S(49,19)", "--json"])
        assert doc["schema_version"] == "1"
        assert doc["command"] == "info"
        p = doc["payload"]
        assert p["schubert"] == {"alpha": 49, "beta": 18}
        assert p["mirrored"] is True
        assert p["name"] == "9_27"
        assert p["crossing_number"] == 9
        assert p["genus"] == 3
        assert p["conway"] == [2, 2, -2, 2, 2, -2]
        assert p["simple_cf"] == [0, 2, 1, 2, 1, 1, 2]

    def test_conway_input(self, capsys):
        doc = _json_out(capsys, ["info", "C[2,2]", "--json"])
        assert doc["payload"]["schubert"] == {"alpha": 5, "beta": 2}
        assert doc["payload"]["crossing_number"] == 4

    def test_conway_round_trip(self, capsys):
        doc = _json_out(capsys, ["info", "S(49,19)", "--json"])
        conway = "C[" + ",".join(str(e) for e in doc["payload"]["conway"]) + "]"
        reparsed = parse_knot_spec(conway)
        assert equivalent(reparsed, SchubertForm(49, 19)) in (
            Equivalence.SAME,
            Equivalence.MIRROR,
        )

    def test_link_input_exits_2(self, capsys):
        assert run(["info", "S(4,1)"]) == 2
        assert "error" in capsys.readouterr().err

    def test_kx(self, capsys):
        doc = _json_out(capsys, ["info", "--kx", "2", "--json"])
        assert doc["payload"]["schubert"] == {"alpha": 961, "beta": 210}

    def test_human_output(self, capsys):
        assert run(["info", "9_27"]) == 0
        out = capsys.readouterr().out
        assert "S(49,18)" in out and "9_27" in out

    def test_golden_document(self, capsys):
        assert run(["info", "C[2,2]", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n'
            '  "schema_version": "1",\n'
            '  "command": "info",\n'
            '  "payload": {\n'
            '    "schubert": {\n'
            '      "alpha": 5,\n'
            '      "beta": 2\n'
            '    },\n'
            '    "mirrored": false,\n'
            '    "name": "4_1",\n'
            '    "crossing_number": 4,\n'
            '    "genus": 1,\n'
            '    "conway": [\n'
            '      2,\n'
            '      2\n'
            '    ],\n'
            '    "simple_cf": [\n'
            '      0,\n'
            '      2,\n'
            '      2\n'
            '    ]\n'
            '  }\n'
            '}\n'
        )


class TestSlopes:
    def test_927_records(self, capsys):
        doc = _json_out(capsys, ["slopes", "S(49,19)", "--json"])
        records = doc["payload"]["records"]
        assert len(records) == 10
        assert {
            "cf": [0, 3, -4, 3, -2],
            "n_plus": 4,
            "n_minus": 0,
            "slope": 8,
            "weight": 12,
        } in records
        assert doc["payload"]["records"][doc["payload"]["longitude_index"]]["slope"] == 0

    def test_figure_eight(self, capsys):
        doc = _json_out(capsys, ["slopes", "S(5,2)", "--json"])
        assert sorted(r["slope"] for r in doc["payload"]["records"]) == [-4, 0, 4]

    def test_kx2_25_records(self, capsys):
        doc = _json_out(capsys, ["slopes", "--kx", "2", "--json"])
        assert len(doc["payload"]["records"]) == 25


class TestAlexander:
    def test_8_8(self, capsys):
        doc = _json_out(capsys, ["alexander", "S(25,9)", "--json"])
        assert doc["payload"]["delta_second_at_one"] == 4
        assert doc["payload"]["alexander"] == {
            "-2": 2, "-1": -6, "0": 9, "1": -6, "2": 2,
        }

    def test_by_name(self, capsys):
        doc = _json_out(capsys, ["alexander", "4_1", "--json"])
        assert doc["payload"]["alexander_str"] == "-t^-1+3-t"
        assert doc["payload"]["signature"] == 0


class TestGoldenDigests:
    # sha256 of stdout, recorded before the half-minor Alexander recurrence
    # and the candidate-order root-of-unity check replaced the full
    # recurrence and the divisor walk; at 12/1 Phi_6 divides the
    # trefoil's Delta, so hypotheses_ok is false there
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["alexander", "S(801,800)", "--json"],
             "ffe05cb027443e3bccad3db03ae0a2708484de256b1988dff35e5c344b61539a"),
            (["alexander", "S(6716940831,6656438750)", "--json"],
             "2dc4fdcc25abbd02e44a0b85d2d7b9790698df39ddf2091c817bc5c891a206e0"),
            (["casson", "3_1", "12/1", "--json"],
             "5b74b359c18576440bf3229677c9ff3f6b4a9860d0e55108b07ba0136b207461"),
            (["casson", "3_1", "30/1", "--json"],
             "8d700172eb7aeb1e0d286477b3e827d367c33db3a219b33db4d3362194b8744f"),
            (["casson", "3_1", "105/1", "--json"],
             "4dcfb26df1967160c888c85733fbf1f1548846c459cbfa183e9afda5b00dbc66"),
            (["casson", "3_1", "0/1", "--json"],
             "523412c956819a8e2fdda3ed78c19198c499ad1b4ed0d99e6712dd310311b5dc"),
            (["casson", "3_1", "-7/2", "--json"],
             "ba625ecd076503d517409af33008c5118bf25fbf3f1c69c91405ce10f7840c87"),
            (["casson", "9_27", "12/1", "--json"],
             "88c43b6e00fc07e677b94b69e52b0f0e8ebc11b8878c8558c094c7dad8685423"),
            (["casson", "9_27", "30/1", "--json"],
             "4f258ec91d0212e1a9d0f9a5cba2d3088b4527a73a7ec857ff63f5bf3e3c3dcd"),
            (["casson", "9_27", "105/1", "--json"],
             "70ae7d5f0d8682101aa7714bc2dd4691031618e37464b2bd040c360dcc514ed2"),
            (["casson", "9_27", "0/1", "--json"],
             "16ddf5ba0bf80a1375efb0af5fb465f060dd8b7f4e8279a8cf51c85c589c3da6"),
            (["casson", "9_27", "-7/2", "--json"],
             "7e8e04153134933fff5d7a86f412ce19b0d29f131d499b749e37c42986b593ac"),
            (["casson", "--kx", "3", "12/1", "--json"],
             "77cca26eb9086a8f10a75bc3d424db431a8258782462f1f804b8837bb741bea8"),
            (["casson", "--kx", "3", "30/1", "--json"],
             "14386d8066d8517dd1b1ad27bf8fee8814bef0ed579b7476dbfedf9d92d985a5"),
            (["casson", "--kx", "3", "105/1", "--json"],
             "3b6aead4638c7881a7b62320041bed040903d1a86fbc578c9c8ce1e69d62c4e5"),
            (["casson", "--kx", "3", "0/1", "--json"],
             "7a3f16d81607f47099e3b57910746793ccf51e3fcd8376403ae17715c53fab67"),
            (["casson", "--kx", "3", "-7/2", "--json"],
             "b5ad5b38ed4540563808fcf4c785f6c50723d8ae4fa994200e0961604b3f121d"),
            # recorded before the listing walked the folded step of the
            # weight walk; S(9227465,3524578) is [0,2,1^30,2], 13,581
            # expansions
            (["slopes", "9_27", "--json"],
             "5fe86eec799e3426c791de2ea8531965cb244a50b15f8bd76db674ddce02e888"),
            (["slopes", "9_27"],
             "fa5ba62c861df71d2c14222164a553d0ea8593817372f316fe180fe67bbe9aa0"),
            (["slopes", "--kx", "1", "--json"],
             "b0189517661bda3562e5a65cbdd10730b6bfa0201ab9606267ee8d14d76ca1ae"),
            (["slopes", "--kx", "1"],
             "fa5ba62c861df71d2c14222164a553d0ea8593817372f316fe180fe67bbe9aa0"),
            (["slopes", "--kx", "2", "--json"],
             "5899901adbd52873244e70cab7a95eac1aae9ed7500d54b11c224fea60b3f122"),
            (["slopes", "--kx", "2"],
             "8c4e64668b7b60f6dcd6f2e8c068907d360c5c80f07ab56fe0e3cfc50d9557bd"),
            (["slopes", "--kx", "3", "--json"],
             "84fcdf5459d023c0a804664d3458fe05dca55cbd24a45b2f63d04600dc2653dc"),
            (["slopes", "--kx", "3"],
             "8f8baaec389705fd0c0bb76ced4a76775eedf1dcecb06a4fec8381f74034e5e8"),
            (["slopes", "S(4001,4000)", "--json"],
             "e70b21e72fdf7900a65d3037b06beebc16ed2b121a5669c258c02a7700d69b4f"),
            (["slopes", "S(4001,4000)"],
             "261c6cc686df8ffea5793a97d30f423dbc23bc3e607d5aa7ec884ed9fa659885"),
            (["slopes", "S(9227465,3524578)", "--json"],
             "022202de10417d156f6d946bcb5676057d201eec3176ab8e18e7c4057d3aaefd"),
            # recorded before the census became one integer pass per knot
            # (band loop, one memo fill, one payload builder)
            (["obstruct", "--census", "12"],
             "8d7c94b77b195a8941a23819b204f90696491d0db5cbbe2a7a590d5793124e66"),
            (["obstruct", "--census", "12", "--jsonl"],
             "1fb227ff4791ddda0adfd3113fd66e5451191f0b2e3ab05b277348d0c7e0a191"),
            (["obstruct", "--census", "12", "--json"],
             "8cc5cd4be24bd26597d211b19796c20a672998a751728495ef6d04b79551bcd3"),
            # recorded before the slope weights became one pass over the
            # Euclid quotients and the --jsonl lines were written from the
            # values without json.dumps
            (["obstruct", "--census", "14"],
             "f4f2d5c763bbccbc403fa550f90d2f16e820695c8412f03114b633cb85ea9202"),
            (["obstruct", "--census", "16", "--jsonl"],
             "6dd934bb9f8a318a0e7f9342d8fd2927854fe79c1a79ef009c1991d16c41981a"),
            # recorded before one writer replaced json.dumps(indent=2) and
            # `alexander` became one band pass and one packed evaluation
            (["info", "9_27", "--json"],
             "9473fefacd82461ddf394578d83e24b1514098e390b7385674f8f3d6596f3bb3"),
            (["info", "S(801,800)"],
             "637b3e3a7bfa2bfe61b93f0d64ecf9199b22d317825f024129efad647dd4c3a7"),
            (["obstruct", "9_27", "--json"],
             "63e2a4c587bb5766decf95d5d523f689476983c9ed6bdd88c8957ace510f69dd"),
            (["obstruct", "S(4001,4000)"],
             "e9cefabcdd71cfb121056d00f07b80363e86b5bb376c7757a1c4b5327aff592d"),
            (["alexander", "S(801,800)"],
             "ce355ccad642d7abd8f5b6d1b7a179477308608dd7d21ce0b7978af766c7b17f"),
            (["casson", "9_27", "-7/2"],
             "8f29f962325b4c87b3c12e2d3f72b0b92d5a0e33f1be0f7667a33c473b3cfc46"),
            (["obstruct", "--census", "9", "--json", "--filter", "sigma=0"],
             "7ba97bfbd0bf4f68d9db18cd95f76bbd0f466fdb0be8e655023df0109a6e2f00"),
            # recorded before the tail walk gave each census knot its
            # quotients and inverse
            (["obstruct", "--census", "18", "--jsonl"],
             "7c72d870754a16f246d7a411d85ac97a8f84c31b4e0dbdd35874aab1623aec4f"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCasson:
    def test_927_homology_sphere_slope(self, capsys):
        doc = _json_out(capsys, ["casson", "S(49,19)", "1/1", "--json"])
        assert doc["payload"]["total_seminorm"] == 134
        assert doc["payload"]["lambda"] == 55
        assert doc["payload"]["hypotheses_ok"] is True

    def test_long_expansion(self, capsys):
        # boundary-slope expansions of 4,001 terms
        doc = _json_out(capsys, ["casson", "S(4001,4000)", "1/1", "--json"])
        assert doc["payload"]["total_seminorm"] == 16006000
        assert doc["payload"]["lambda"] == 8002000

    def test_meridian_exits_2(self, capsys):
        assert run(["casson", "S(49,19)", "1/0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_integer_slope_exits_2(self, capsys):
        assert run(["casson", "9_27", "abc"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fractional_value_serialized_as_string(self, capsys):
        # odd alpha = 5: (alpha-1)/4 = 1, seminorm/2 can be fractional
        doc = _json_out(capsys, ["casson", "S(5,2)", "1/2", "--json"])
        value = doc["payload"]["lambda"]
        assert isinstance(value, (int, str))
        if isinstance(value, str):
            assert "/" in value


class TestObstruct:
    def test_kx1(self, capsys):
        doc = _json_out(capsys, ["obstruct", "--kx", "1", "--json"])
        p = doc["payload"]
        assert p["name"] == "9_27"
        assert p["delta_second"] == 0
        assert p["sigma"] == 0
        assert p["casson_difference"] == -2
        assert p["verdict"] == "NoHomologySphereCosmetic_SL2C"

    def test_6_3(self, capsys):
        doc = _json_out(capsys, ["obstruct", "S(13,5)", "--json"])
        assert doc["payload"]["delta_second"] == 2
        assert doc["payload"]["verdict"] == "NoCosmetic_BoyerLines"

    def test_census_filter_sigma_zero(self, capsys):
        assert run(["obstruct", "--census", "9", "--filter", "sigma=0", "--jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        docs = [json.loads(line) for line in lines]
        names = [d["payload"]["name"] for d in docs]
        assert names[-1] == "9_27"
        keys = [(d["payload"]["schubert"]["alpha"], d["payload"]["schubert"]["beta"]) for d in docs]
        assert keys == sorted(keys)

    def test_census_json_array(self, capsys):
        # sorted by (alpha, beta): S(3,2), S(5,2), S(5,4), S(7,2)
        doc = _json_out(capsys, ["obstruct", "--census", "5", "--json"])
        names = [p["name"] for p in doc["payload"]]
        assert names == ["3_1", "4_1", "5_1", "5_2"]

    def test_census_filter_verdict(self, capsys):
        assert run(
            ["obstruct", "--census", "9", "--filter", "verdict=NoHomologySphereCosmetic_SL2C", "--jsonl"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["payload"]["name"] == "9_27"

    def test_bad_filter_exits_2(self, capsys):
        assert run(["obstruct", "--census", "4", "--filter", "nonsense=1"]) == 2

    @pytest.mark.parametrize(
        "bad, message",
        [("nonsense=1", "unknown filter field 'nonsense'"),
         ("sigma", "bad --filter 'sigma', want field=value")],
    )
    def test_bad_filter_rejected_before_census(self, capsys, monkeypatch, bad, message):
        import twobridge.cli as cli

        def no_census(_n):
            raise AssertionError("census ran before the filter was checked")

        monkeypatch.setattr(cli, "_unsorted_census", no_census)
        argv = ["obstruct", "--census", "9", "--filter", "sigma=0", "--filter", bad]
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_filter_without_census_exits_2(self, capsys):
        assert run(["obstruct", "9_27", "--filter", "nonsense=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --filter needs --census\n"

    def test_filters_do_not_leak_between_runs(self, capsys):
        sl2c = "verdict=NoHomologySphereCosmetic_SL2C"
        for filters, count in (([sl2c], 1), (["sigma=0"], 13), ([], 50), ([sl2c], 1)):
            argv = ["obstruct", "--census", "9", "--jsonl"]
            for f in filters:
                argv += ["--filter", f]
            assert run(argv) == 0
            assert len(capsys.readouterr().out.splitlines()) == count, filters

    def test_filter_takes_json_spellings(self, capsys):
        # a field matches its Python str() or its JSON text
        def kept(spelling):
            assert run(["obstruct", "--census", "9", "--jsonl", "--filter", spelling]) == 0
            return capsys.readouterr().out

        assert kept("mirrored=false") == kept("mirrored=False") != ""
        assert kept("mirrored=true") == kept("mirrored=True") != ""
        assert kept("name=null") == kept("name=None") != ""
        assert kept('schubert={"alpha": 49, "beta": 18}') == kept(
            "schubert={'alpha': 49, 'beta': 18}"
        ) != ""
        assert kept('caveats=["rules out only surgery pairs yielding homology 3-spheres"]') != ""

    def test_casson_difference_serialized_from_twice_its_value(self):
        # the census carries 2 * casson_difference as an integer; no
        # census knot up to 16 crossings has an odd one, so check the
        # half-integer branch against the Fraction route here
        import twobridge.cli as cli

        for twice in range(-7, 8):
            assert cli._half(twice) == cli._rat(Fraction(twice, 2))

    def test_jsonl_line_is_json_dumps_of_the_payload(self):
        # the --jsonl writer formats each line from the kernel values; it
        # must give json.dumps's bytes for every census knot, and for the
        # cases no small census has: every verdict with an odd twice
        import itertools

        import twobridge.cli as cli
        from twobridge.obstruction import Verdict, _unsorted_census

        values = list(_unsorted_census(12))
        alpha, beta, mirrored, name, crossings, delta_second, sigma, _, _ = values[0]
        for verdict, twice, flag, knot in itertools.product(
            Verdict, (-7, -1, 0, 1, 4), (False, True), (None, "9_27")
        ):
            values.append((alpha, beta, flag, knot, crossings, delta_second, sigma, twice, verdict))
        for v in values:
            expected = json.dumps(cli._document("obstruct", cli._report_payload(v)))
            assert cli._census_jsonl(v) == expected

    def test_filter_fields_are_the_report_keys(self):
        import twobridge.cli as cli
        from twobridge.obstruction import _unsorted_census

        payload = cli._report_payload(next(_unsorted_census(3)))
        assert tuple(payload) == cli._REPORT_FIELDS

    def test_census_over_limit_exits_2_at_once(self, capsys):
        assert run(["obstruct", "--census", "40", "--jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: census is limited to {CENSUS_MAX_CROSSINGS} crossings, got 40\n"
        )

    def test_census_deterministic(self, capsys):
        assert run(["obstruct", "--census", "7", "--jsonl"]) == 0
        first = capsys.readouterr().out
        assert run(["obstruct", "--census", "7", "--jsonl"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestExactSerialization:
    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "S(49,19)", "--json"],
            ["slopes", "S(5,2)", "--json"],
            ["alexander", "9_27", "--json"],
            ["casson", "S(5,2)", "1/2", "--json"],
            ["casson", "S(49,19)", "-1/3", "--json"],
            ["obstruct", "--kx", "2", "--json"],
        ],
    )
    def test_no_floats_anywhere(self, capsys, argv):
        doc = _json_out(capsys, argv)

        def walk(node):
            if isinstance(node, float):
                raise AssertionError(f"float leaked into JSON output: {node}")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(doc)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "S(49,19)", "--json"],
            ["slopes", "--kx", "2", "--json"],
            ["alexander", "9_27", "--json"],
            ["casson", "S(49,19)", "-1/2", "--json"],
            ["obstruct", "--census", "6", "--jsonl"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_missing_knot_exits_2(self, capsys):
        assert run(["info"]) == 2

    def test_overlong_number_exits_2(self, capsys):
        # int() refuses strings past the interpreter's digit limit
        assert run(["info", "S(" + "1" * 5000 + ",2)"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGenusLimit:
    # S(2g+1, 2g) has genus g; with a 4,000-digit g the even Conway walk
    # would never end, so every command that takes it stops at MAX_GENUS
    @pytest.mark.parametrize("command", [["info"], ["alexander"], ["obstruct"], ["casson", "1/1"]])
    def test_over_limit_exits_2_at_once(self, capsys, command):
        g = 10**3999 + 7
        start = time.perf_counter()
        assert run([command[0], f"S({2 * g + 1},{2 * g})", *command[1:]]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: genus is limited to {MAX_GENUS}; this knot's genus is larger\n"
        )


class TestExpansionLimit:
    # the expansions' length times their number bounds the listing: 49 and
    # 120 crossings of small terms have too many, a 4,000-digit S(n+1,n)
    # one too long
    @pytest.mark.parametrize(
        "spec",
        ["S(12586269025,4807526976)",
         "S(521279077717945120069,157830605192396834313)",
         f"S({2 * 10**3999 + 15},{2 * 10**3999 + 14})"],
        ids=["49_crossings", "120_crossings", "4000_digits"],
    )
    def test_over_limit_exits_2_at_once(self, capsys, spec):
        start = time.perf_counter()
        assert run(["slopes", spec, "--json"]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: boundary-slope expansions are limited to {MAX_EXPANSION_TERMS}"
            " terms in total; this knot's have more\n"
        )

    def test_long_expansion_lists_at_once(self, capsys):
        # 100000/100001 has an expansion of 100,001 terms; the listing
        # costs what it prints
        start = time.perf_counter()
        doc = _json_out(capsys, ["slopes", "S(100001,100000)", "--json"])
        assert time.perf_counter() - start < 5
        assert max(len(r["cf"]) for r in doc["payload"]["records"]) == 100001


class TestAsciiDigits:
    # int() also takes "_" digit separators and the digits of other
    # scripts, and so does the regex \d; the grammar is ASCII digits with
    # an optional sign and surrounding whitespace
    @pytest.mark.parametrize("slope", ["1_0/3", "\u0667/2", "7/\u0662", "1/2_0"])
    def test_slope_exits_2(self, capsys, slope):
        assert run(["casson", "9_27", slope]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot parse surgery slope {slope!r} (want p/q or p)\n"

    @pytest.mark.parametrize(
        "spec",
        ["S(\u0664\u0669,\u0661\u0669)", "S(49,1\u0669)", "C[\u0662,\u0662]",
         "\u0669_\u0662\u0667", "S(4_9,19)"],
    )
    def test_knot_spec_exits_2(self, capsys, spec):
        assert run(["info", spec]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot parse knot spec {spec!r} (want S(a,b), C[...], or a name)\n"

    @pytest.mark.parametrize(
        "argv",
        [["info", "--kx", "\u0662"], ["info", "--kx", "1_0"], ["obstruct", "--census", "\u0665"]],
    )
    def test_integer_option_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"invalid int value: {argv[-1]!r}" in capsys.readouterr().err

    def test_sign_and_whitespace_still_accepted(self, capsys):
        assert run(["casson", "9_27", "7/2"]) == 0
        plain = capsys.readouterr().out
        for slope in ["+7/2", " 7 / 2 ", "7/+2"]:
            assert run(["casson", "9_27", slope]) == 0
            assert capsys.readouterr().out == plain
        assert run(["info", "--kx", "+2"]) == 0


class TestExitCodes:
    # a violated invariant is a bug whatever the input, so it exits 3, not 2
    @pytest.mark.parametrize(
        "error",
        [ValueError, NormalizationError, RecursionError, AssertionError],
        ids=lambda e: e.__name__,
    )
    def test_bug_during_computation_exits_3(self, capsys, monkeypatch, error):
        import twobridge.cli as cli

        def broken(_knot):
            raise error("simulated bug")

        monkeypatch.setattr(cli, "obstruct", broken)
        assert run(["obstruct", "9_27"]) == 3
        assert capsys.readouterr().err == "internal error: simulated bug\n"

    def test_exception_without_a_message_names_its_type(self, capsys, monkeypatch):
        import twobridge.cli as cli

        def exhausted(_knot):
            raise MemoryError()

        monkeypatch.setattr(cli, "obstruct", exhausted)
        assert run(["obstruct", "9_27"]) == 3
        assert capsys.readouterr().err == "internal error: MemoryError\n"
