import json

import numpy as np
import pytest

from triqent import bipartite, canonical, classification, cli, gensim, measures, qcore
from triqent.cli import (
    _class_state,
    analyze_state,
    load_records,
    main,
    record_to_state,
    state_to_record,
)
from triqent.classification import classify


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def ghz_record():
    s = 1 / np.sqrt(2)
    return {
        "id": "ghz",
        "amplitudes": [[s, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [s, 0]],
        "metadata": {},
    }


def w_record():
    s = 1 / np.sqrt(3)
    amps = [[0.0, 0.0]] * 8
    for idx in (1, 2, 4):
        amps[idx] = [s, 0.0]
    return {"id": "w", "amplitudes": amps, "metadata": {}}


def product_record():
    amps = [[0.0, 0.0]] * 8
    amps[0] = [1.0, 0.0]
    return {"id": "product", "amplitudes": amps, "metadata": {}}


def count_calls(monkeypatch, fn) -> list:
    """Count calls of ``fn`` through every binding of it in the package."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for module in (qcore, bipartite, canonical, measures, classification, gensim, cli):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestRecordIO:
    def test_roundtrip_precision(self):
        state = qcore.haar_state(3, 9)
        rec = state_to_record(state, "x")
        back = record_to_state(rec)
        assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-15

    def test_load_array_and_ndjson(self):
        recs = [ghz_record(), w_record()]
        assert load_records(json.dumps(recs)) == recs
        nd = "\n".join(json.dumps(r) for r in recs)
        assert load_records(nd) == recs

    def test_load_single_object(self):
        assert load_records(json.dumps(ghz_record())) == [ghz_record()]

    def test_parse_error_mentions_line(self):
        with pytest.raises(ValueError, match="line 2"):
            load_records('{"id": "a", "amplitudes": []}\n{oops\n')

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="8 amplitudes"):
            record_to_state({"id": "bad", "amplitudes": [[1, 0]]})

    @pytest.mark.parametrize(
        "amps,message",
        [
            ([1, 0, 0, 0, 0, 0, 0, 0], "number pairs"),
            ([["1", 0]] + [[0, 0]] * 7, "number pairs"),
            ([[1, 0, 0]] + [[0, 0]] * 7, "number pairs"),
            ([[float("nan"), 0]] + [[1, 0]] * 7, "non-finite"),
            ([[1, float("inf")]] + [[0, 0]] * 7, "non-finite"),
        ],
        ids=["bare-numbers", "string-part", "triple", "nan", "inf"],
    )
    def test_rejects_malformed_amplitudes(self, amps, message, tmp_path, capsys):
        bad = {"id": "bad", "amplitudes": amps}
        with pytest.raises(ValueError, match=f"record 'bad': .*{message}"):
            record_to_state(bad)
        path = tmp_path / "in.json"
        path.write_text(json.dumps([bad, ghz_record()]))
        code, out = run_cli(["analyze", str(path)], capsys)
        reports = json.loads(out)
        assert code == 0 and message in reports[0]["error"]
        assert reports[1]["classification"]["class"] == "Class4"


class TestAnalyze:
    def test_ghz_report(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record()]))
        code, out = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        report = json.loads(out)[0]
        assert report["classification"]["class"] == "Class4"
        assert abs(report["measures"]["E1"] - 1) < 1e-9
        assert abs(report["measures"]["E3"]) < 1e-9

    def test_w_report(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([w_record()]))
        code, out = run_cli(["analyze", str(path)], capsys)
        report = json.loads(out)[0]
        assert report["classification"]["class"] == "Class1_W"
        assert report["bipartite"]["tangle"] < 1e-9

    def test_biseparable_becomes_error_record(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([product_record(), ghz_record()]))
        code, out = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["error"] == "biseparable"
        assert "classification" in reports[1]

    def test_split_flag_matches_manual_permutation(self, tmp_path, capsys):
        state = qcore.haar_state(3, 44)
        path = tmp_path / "in.json"
        path.write_text(json.dumps([state_to_record(state, "s")]))
        _, out = run_cli(["analyze", str(path), "--split", "2"], capsys)
        report = json.loads(out)[0]
        manual = analyze_state(qcore.permute_qubits(state, (2, 1, 3)))
        assert abs(report["measures"]["E1"] - manual["measures"]["E1"]) < 1e-12
        assert report["standard_form"]["lambdas"] == pytest.approx(
            manual["standard_form"]["lambdas"], abs=1e-12
        )

    def test_table_rendering(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record()]))
        _, out = run_cli(["analyze", str(path), "--table"], capsys)
        assert "Class4" in out and "E1" in out

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record(), w_record()]))
        _, out1 = run_cli(["analyze", str(path)], capsys)
        _, out2 = run_cli(["analyze", str(path)], capsys)
        assert out1 == out2

    def test_computes_each_stage_once(self, monkeypatch):
        stages = {
            fn.__name__: count_calls(monkeypatch, fn)
            for fn in (
                bipartite.schmidt_split,
                bipartite.tau_matrix,
                canonical.decompose_split,
                classification.standard_forms,
            )
        }
        analyze_state(qcore.genuine_haar_state(3))
        assert {name: len(calls) for name, calls in stages.items()} == dict.fromkeys(stages, 1)


class TestSubcommands:
    def test_decompose(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record()]))
        _, out = run_cli(["decompose", str(path)], capsys)
        rep = json.loads(out)[0]
        assert abs(rep["canonical"]["a"] - 1 / np.sqrt(2)) < 1e-9
        assert rep["canonical"]["max_entangled_convention"]

    def test_standard_form(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record()]))
        _, out = run_cli(["standard-form", str(path)], capsys)
        rep = json.loads(out)[0]
        assert abs(rep["invariants"]["J4"] - 0.25) < 1e-9

    def test_gensim_command(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record()]))
        _, out = run_cli(["gensim", str(path)], capsys)
        rep = json.loads(out)[0]
        assert rep["outcomes"] == 256
        assert rep["probability_deviation"] < 1e-12
        assert rep["member_aggregates"] == pytest.approx([0.25] * 4, abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--table"],
            ["measures", "--table"],
            ["classify", "--table"],
            ["standard-form", "--table"],
            ["gensim", "--table"],
            ["gensim", "--tol-clu", "0.5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejects_options_the_command_ignores(self, argv, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps([ghz_record()]))
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err

    def test_gensim_reports_a_malformed_record_and_goes_on(self, tmp_path, capsys):
        bad = {"id": "short", "amplitudes": [[1, 0]] * 7}
        path = tmp_path / "in.json"
        path.write_text(json.dumps([bad, ghz_record()]))
        code, out = run_cli(["gensim", str(path)], capsys)
        assert code == 0
        reports = json.loads(out)
        assert reports[0] == {"id": "short", "error": "record 'short': expected 8 amplitudes"}
        assert reports[1]["id"] == "ghz" and reports[1]["outcomes"] == 256


class TestRandom:
    def test_deterministic(self, capsys):
        _, out1 = run_cli(["random", "haar", "--count", "3", "--seed", "5"], capsys)
        _, out2 = run_cli(["random", "haar", "--count", "3", "--seed", "5"], capsys)
        assert out1 == out2

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TRIQENT_SEED", "11")
        _, out1 = run_cli(["random", "haar", "--count", "2"], capsys)
        _, out2 = run_cli(["random", "haar", "--count", "2", "--seed", "11"], capsys)
        assert out1 == out2

    def test_unknown_ensemble_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["random", "bogus", "--count", "1"])

    @pytest.mark.parametrize(
        "ensemble,expected",
        [("class2", "Class2"), ("class3", "Class3"), ("class4", "Class4")],
    )
    def test_class_ensembles_hit_target(self, ensemble, expected, capsys):
        # Occasional misses are allowed only inside the tolerance band at a
        # class boundary (the acceptance campaign pins the >= 99% rate).
        _, out = run_cli(["random", ensemble, "--count", "20", "--seed", "7"], capsys)
        records = json.loads(out)
        hits = sum(
            classify(record_to_state(r)).subclass.value == expected for r in records
        )
        assert hits >= 19

    def test_real_ensemble_all_clu(self, capsys):
        _, out = run_cli(["random", "real", "--count", "20", "--seed", "7"], capsys)
        records = json.loads(out)
        assert all(classify(record_to_state(r)).clu for r in records)

    def test_haar_ensemble_nclu(self, capsys):
        _, out = run_cli(["random", "haar", "--count", "20", "--seed", "7"], capsys)
        records = json.loads(out)
        assert all(not classify(record_to_state(r)).clu for r in records)


class TestVerify:
    def test_monogamy_suite_passes(self, capsys):
        code, out = run_cli(["verify", "monogamy", "--count", "60", "--seed", "1"], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["monogamy"]["passed"]
        assert summary["monogamy"]["max_residual"] < 1e-9

    def test_gensim_suite_passes(self, capsys):
        code, out = run_cli(["verify", "gensim", "--count", "2", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["gensim"]["passed"]

    def test_roundtrip_suite_passes(self, capsys):
        code, out = run_cli(["verify", "roundtrip", "--count", "15", "--seed", "2"], capsys)
        assert code == 0

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "res.json"
        code, _ = run_cli(
            ["verify", "monogamy", "--count", "5", "--seed", "1", "--out", str(target)],
            capsys,
        )
        assert code == 0
        assert json.loads(target.read_text())["monogamy"]["passed"]


class TestClassStateSampler:
    def test_genuine_and_deterministic(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        for kind in ("haar", "real", "class2", "class3", "class4"):
            a = _class_state(kind, rng1)
            b = _class_state(kind, rng2)
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert qcore.genuine_tripartite(a)
