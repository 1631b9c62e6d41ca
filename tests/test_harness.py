import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hecke_spectra import class_numbers, eichler_selberg, harness
from hecke_spectra.harness import (
    ConfigError,
    ExperimentRecord,
    cache_get,
    cache_put,
    parse_config,
    run_experiment,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.CACHE_ENV, str(tmp_path / "cache"))
    # force a reload from the new location
    harness._CACHE._loaded_from = None
    yield
    harness._CACHE.close()
    harness._CACHE._loaded_from = None


def test_record_json_roundtrip():
    rec = ExperimentRecord(
        "trace", {"n": 2, "k": 12, "N": 1}, {"total": -0.53033},
        {"tool": "hecke-spectra x", "timestamp": "t", "truncation": {"mode": "exact"}},
    )
    line = rec.to_json_line()
    assert "\n" not in line
    back = ExperimentRecord.from_json_line(line)
    assert back == rec


def test_parse_config():
    cfg = parse_config("n = 1..5\nk = 12, 16 # comment\n\n# full line comment\nN=1\n")
    assert cfg == {"n": "1..5", "k": "12, 16", "N": "1"}
    with pytest.raises(ConfigError):
        parse_config("this is not a key value line\n")


def test_cache_roundtrip_float():
    row = [0.123456789, -1e-300, 2.0 ** 0.5]
    cache_put(("d_coefficients", "105,2"), row)
    got = cache_get(("d_coefficients", "105,2"))
    assert [v.hex() for v in got] == [v.hex() for v in row]  # bit-identical through the log


def test_cache_survives_reload():
    cache_put(("f", "1"), [2.5, -1.0])
    harness._CACHE._loaded_from = None  # simulate a fresh process
    assert cache_get(("f", "1")) == (2.5, -1.0)


def test_corrupt_cache_detected_and_rebuilt():
    for i in range(5):
        cache_put(("f", str(i)), [float(i)] * 3)
    path = harness._cache_file()
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-10] + "0000000000"  # clobber a checksum
    path.write_text("".join(l + "\n" for l in lines))
    harness._CACHE._loaded_from = None
    assert cache_get(("f", "1")) == (1.0,) * 3  # prefix survives
    assert cache_get(("f", "3")) is None  # tail discarded
    assert len(path.read_text().splitlines()) == 2


def _count_rows(monkeypatch):
    rows = []
    real = eichler_selberg.d_coefficients
    monkeypatch.setattr(eichler_selberg, "d_coefficients",
                        lambda n, N: rows.append((n, N)) or real(n, N))
    return rows


def _per_t_line(t, n, N, d):
    # a line of the earlier memo format: one float per (t, n, N), correctly checksummed
    payload = {"error_bound": 0.0, "float": d, "key": ["d_coefficient", f"{t},{n},{N}"]}
    payload["sha"] = harness._line_checksum(payload)
    return json.dumps(payload, sort_keys=True)


def test_old_per_t_memo_is_cut_back_not_read(monkeypatch):
    cfg = {"n": "105", "N": "2"}
    row = eichler_selberg.d_coefficients(105, 2).tolist()
    path = harness._cache_file()
    path.parent.mkdir(parents=True)
    path.write_text("".join(_per_t_line(t, 105, 2, d) + "\n" for t, d in zip(range(-20, 21), row)))
    rows = _count_rows(monkeypatch)
    recs = run_experiment("arith-sum", cfg)
    assert rows == [(105, 2)]  # the per-t lines were not read as a row
    lines = path.read_text().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["key"] == ["d_coefficients", "105,2"]
    assert recs[0].outputs["d_square_sum"] == math.fsum(d * d for d in row)


def test_cache_needs_no_home_when_location_is_set(monkeypatch):
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", no_home)
    cache_put(("f", "1"), [2.5])
    assert cache_get(("f", "1")) == (2.5,)


def test_cache_follows_a_location_switch(tmp_path, monkeypatch):
    cache_put(("f", "a"), [1.0])
    old = harness._cache_file()
    old_bytes = old.read_bytes()
    monkeypatch.setenv(harness.CACHE_ENV, str(tmp_path / "other"))
    assert cache_get(("f", "a")) is None
    cache_put(("f", "b"), [2.0])
    assert old.read_bytes() == old_bytes
    assert '"b"' in (tmp_path / "other" / "memo.jsonl").read_text()
    monkeypatch.setenv(harness.CACHE_ENV, str(old.parent))
    assert cache_get(("f", "a")) == (1.0,)
    assert cache_get(("f", "b")) is None


def test_cache_line_is_readable_when_put_returns():
    cache_put(("f", "1"), [2.5])
    with harness._cache_file().open() as fh:
        assert '"1"' in fh.read()


def _lines_pass_their_checksum(path):
    lines = path.read_text().splitlines()
    for line in lines:
        d = json.loads(line)
        assert d.pop("sha") == harness._line_checksum(d)
    return lines


def test_cache_writers_taking_turns_share_one_file():
    a, b = harness._Cache(), harness._Cache()
    try:
        for i in range(20):
            (a if i % 2 else b).put(("f", str(i)), [float(i), -float(i)])
    finally:
        a.close()
        b.close()
    assert len(_lines_pass_their_checksum(harness._cache_file())) == 20
    for i in range(20):
        assert cache_get(("f", str(i))) == (float(i), -float(i))


_WRITER = """
import os, sys, time
from hecke_spectra import harness
go, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
harness.cache_get(("d_coefficients", "0,0"))  # read the (empty) memo before either appends
open(go + "." + tag, "w").close()  # ready
while not os.path.exists(go):
    time.sleep(0.001)
for i in range(count):
    # 4,095 floats: the longest row arith-sum admits (4n <= 2^22, tmax = 2047)
    harness.cache_put(("d_coefficients", f"{tag},{i}"), [-(i + j + 1) / 7e3 for j in range(4095)])
harness._CACHE.close()
"""


def test_two_processes_appending_long_rows_tear_no_line(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    go = tmp_path / "go"
    count = 20
    procs = [subprocess.Popen([sys.executable, "-c", _WRITER, str(go), tag, str(count)], env=env)
             for tag in ("a", "b")]
    deadline = time.monotonic() + 60
    while not all((tmp_path / f"go.{tag}").exists() for tag in ("a", "b")):
        assert time.monotonic() < deadline and all(p.poll() is None for p in procs)
        time.sleep(0.005)
    go.touch()  # both writers start appending together
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    lines = _lines_pass_their_checksum(harness._cache_file())
    assert len(lines) == 2 * count
    assert len(lines[0]) > 65_536
    for tag in ("a", "b"):
        assert cache_get(("d_coefficients", f"{tag},{count - 1}"))[-1] == -(count + 4094) / 7e3


def test_cache_line_format_is_stable():
    cache_put(("d_coefficients", "1001,6"), [-0.1234567890123456789, 0.0, 2.5])
    assert harness._cache_file().read_text() == (
        '{"key": ["d_coefficients", "1001,6"], "row": [-0.12345678901234568, 0.0, 2.5], '
        '"sha": "ce36014d8b154659"}\n'
    )


def test_run_experiment_trace_oracle():
    recs = run_experiment("trace", {"n": "2", "k": "12", "N": "1"})
    assert len(recs) == 1
    assert abs(recs[0].outputs["total"] - (-24.0 / 2 ** 5.5)) < 1e-9
    assert "truncation" in recs[0].provenance


def test_discrepancy_records_state_their_route():
    recs = run_experiment("discrepancy", {"k": "12,24", "N": "1,3", "p": "2"})
    routes = {(r.parameters["k"], r.parameters["N"]): r.provenance["truncation"] for r in recs}
    assert routes[(12, 1)] == {"route": "newton", "newton_digits": 40}
    assert routes[(24, 1)] == {"route": "hecke_matrix"}
    assert routes[(24, 3)]["route"] == "newton"


def test_unknown_experiment_and_bad_config():
    with pytest.raises(ConfigError):
        run_experiment("frobnicate", {})
    with pytest.raises(ConfigError):
        run_experiment("trace", {"n": "abc"})
    with pytest.raises(ConfigError):
        run_experiment("trace", {})
    with pytest.raises(ConfigError, match="kind"):
        run_experiment("petersson", {"kind": "newform", "n": "1"})
    with pytest.raises(ConfigError, match="empty"):
        run_experiment("trace", {"n": "5..1"})
    with pytest.raises(ConfigError, match="'nn'"):
        run_experiment("trace", {"nn": "2", "n": "2"})


def test_shipped_configs_use_known_keys():
    root = Path(__file__).resolve().parents[1]
    for path in sorted((root / "configs").glob("*.cfg")):
        cfg = parse_config(path.read_text())
        _, keys = harness._DRIVERS[cfg["experiment"]]
        assert set(cfg) <= keys | harness._CLI_KEYS, path.name


def test_thread_count_does_not_change_outputs():
    cfg = {"n": "1..12", "k": "12,16", "N": "1"}
    seq = run_experiment("trace", cfg, threads=1)
    par = run_experiment("trace", cfg, threads=4)
    assert [r.parameters for r in seq] == [r.parameters for r in par]
    assert [r.outputs for r in seq] == [r.outputs for r in par]


def test_cold_vs_warm_identical():
    cfg = {"n": "101,105", "N": "2"}
    cold = run_experiment("arith-sum", cfg)
    warm = run_experiment("arith-sum", cfg)
    assert [r.outputs for r in cold] == [r.outputs for r in warm]


def test_cold_memo_lines_follow_the_per_t_route():
    # one row line per (n, N) in cell order, each value d_coefficients(n, N)
    # bit for bit and equal to the per-(t, f) route; 1001 is an arith-memo n
    run_experiment("arith-sum", {"n": "105,1001", "N": "2,6"})
    lines = [json.loads(line) for line in harness._cache_file().read_text().splitlines()]
    cells = [(105, 2), (1001, 2), (1001, 6)]  # gcd(105, 6) > 1
    assert [d["key"] for d in lines] == [["d_coefficients", f"{n},{N}"] for n, N in cells]
    for d, (n, N) in zip(lines, cells):
        tmax = math.isqrt(4 * n - 1)
        row = [v.hex() for v in d["row"]]
        assert row == [v.hex() for v in eichler_selberg.d_coefficients(n, N).tolist()]
        per_t = [float(eichler_selberg._hw_sum(t, n, N, True)) / (2.0 * math.sqrt(4 * n - t * t))
                 for t in range(-tmax, tmax + 1)]
        assert row == [v.hex() for v in per_t]


def test_memo_with_missing_keys_recomputes_the_row_once(monkeypatch):
    cfg = {"n": "101,105", "N": "2"}
    cold = run_experiment("arith-sum", cfg)
    path = harness._cache_file()
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    path.write_text(lines[1] + "\n")  # drop the (101, 2) row
    harness._CACHE._loaded_from = None
    rows = _count_rows(monkeypatch)
    warm = run_experiment("arith-sum", cfg)
    assert rows == [(101, 2)]
    assert path.read_text().splitlines() == [lines[1], lines[0]]
    assert [r.outputs for r in warm] == [r.outputs for r in cold]


def test_warm_pass_computes_no_row_and_builds_no_table(monkeypatch):
    cfg = {"n": "101,105,1001", "N": "2,6"}
    cold = run_experiment("arith-sum", cfg)
    memo = harness._cache_file().read_bytes()
    harness._CACHE._loaded_from = None  # a fresh process
    monkeypatch.setattr(class_numbers, "_h_table", None)
    builds = []
    real_build = class_numbers.build_form_table
    monkeypatch.setattr(class_numbers, "build_form_table",
                        lambda limit: builds.append(limit) or real_build(limit))
    rows = _count_rows(monkeypatch)
    warm = run_experiment("arith-sum", cfg)
    assert rows == [] and builds == [] and class_numbers._h_table is None
    assert harness._cache_file().read_bytes() == memo
    assert [r.outputs for r in warm] == [r.outputs for r in cold]


def test_cli_main(tmp_path, capsys):
    cfgfile = tmp_path / "t.cfg"
    cfgfile.write_text("n = 2\nk = 12\nN = 1\n")
    out = tmp_path / "r.jsonl"
    code = harness.main(["trace", "--config", str(cfgfile), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert abs(rec["outputs"]["total"] + 0.5303300858899106) < 1e-9
    assert capsys.readouterr().out.strip() == lines[0]


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense\n")
    assert harness.main(["trace", "--config", str(cfgfile)]) == 2
    assert harness.main(["trace", "--config", str(tmp_path / "missing.cfg")]) == 2
    tables = (class_numbers._h_table, class_numbers._r3_table)
    for experiment, text in [
        ("petersson", "kind = newform\nn = 1\n"),
        ("trace", "n = 5..1\n"),
        ("trace", "n = 2\nnn = 3\n"),
        ("petersson", "kind = new\nN = 7\nn = 7\n"),
        ("trace", "kind = new\nN = 4\nn = 3\n"),
        ("discrepancy", "k = 276\nN = 1\np = 2\n"),
        ("discrepancy", "k = 14\nN = 1\np = 2\n"),
        ("discrepancy", "k = 24\nN = 1\np = 4\n"),
        ("maint", "k = 4\n"),
        ("orbital", "k = 13\nt = 1\n"),
        ("orbital", "k = 12\nt = 1,5\n"),
        ("noweight", "N = 4\nn = 2280\n"),
        ("noweight", "delta = -1\nn = 2280\n"),
        ("variance", "N = 4\nn = 105\n"),
        ("bessel-sum", "K = 2000\ndelta = 0\nx = 100\n"),
        ("arith-sum", "N = 0\nn = 1\n"),
        ("variance", "N = 2\nn = 3\nT = nan\n"),
        # the smallest n whose class numbers pass MAX_ABS_DISC, refused before any table grows
        ("trace", "n = 2500001\n"),
        # the same bad cell after good ones: still refused before any record
        ("trace", "n = 1,2,2500001\n"),
        # the smallest odd n prime to N whose r3 lookups (4n) pass MAX_R3_N = 2^22
        ("arith-sum", "N = 2\nn = 1048577\n"),
    ]:
        cfgfile.write_text(text)
        assert harness.main([experiment, "--config", str(cfgfile)]) == 2, text
    # every config above is refused at parse time, before any table grows
    # and before any record is printed
    assert class_numbers._h_table is tables[0] and class_numbers._r3_table is tables[1]
    assert capsys.readouterr().out == ""


def test_run_experiment_maint_residuals():
    from hecke_spectra.petersson import delta_new, maint_main_terms, window_n

    recs = run_experiment("maint", {"k": "48", "N": "1,7"})
    assert [(r.parameters["k"], r.parameters["N"]) for r in recs] == [(48, 1), (48, 7)]
    for r in recs:
        k, N, m, n = (r.parameters[key] for key in ("k", "N", "m", "n"))
        assert (m, n) == (1, window_n(k, N))
        main = maint_main_terms(k, N, m, n)
        assert r.outputs["residual"] == delta_new(k, N, m, n).value - main
        assert r.outputs["main_term"] == main
        assert r.outputs["scaled_residual"] == r.outputs["residual"] * math.sqrt(k)
        assert r.provenance["truncation"]["c_max"] >= 1


def test_cli_csv_emitter(tmp_path):
    cfgfile = tmp_path / "t.cfg"
    cfgfile.write_text("n = 1..3\nk = 12\nN = 1\n")
    csvfile = tmp_path / "r.csv"
    assert harness.main(["trace", "--config", str(cfgfile), "--csv", str(csvfile)]) == 0
    rows = csvfile.read_text().splitlines()
    assert rows[0].startswith("experiment,")
    assert len(rows) == 4


def _spy_trace_new(monkeypatch, before_call):
    real = eichler_selberg.trace_new

    def spy(n, k, N):
        before_call()
        return real(n, k, N)

    monkeypatch.setattr(eichler_selberg, "trace_new", spy)


def test_each_record_is_emitted_before_the_next_cell_runs(monkeypatch):
    emitted, seen = [], []
    _spy_trace_new(monkeypatch, lambda: seen.append(len(emitted)))
    recs = run_experiment("trace", {"n": "1..4", "k": "12", "N": "1"}, emit=emitted.append)
    assert seen == [0, 1, 2, 3]
    assert emitted == recs


def _without_timestamp(line):
    d = json.loads(line)
    del d["provenance"]["timestamp"]
    return d


def test_cli_prints_and_writes_the_records_it_returns(tmp_path, capsys, monkeypatch):
    returned = []
    real = harness.run_experiment

    def spy(*args, **kwargs):
        returned.extend(real(*args, **kwargs))
        return returned

    monkeypatch.setattr(harness, "run_experiment", spy)
    cfgfile = tmp_path / "t.cfg"
    cfgfile.write_text("n = 1..5\nk = 12,16\nN = 1\n")
    out = tmp_path / "r.jsonl"
    assert harness.main(["trace", "--config", str(cfgfile), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines == [r.to_json_line() for r in returned] == out.read_text().splitlines()
    library = real("trace", parse_config(cfgfile.read_text()))
    assert [_without_timestamp(line) for line in lines] == [
        _without_timestamp(r.to_json_line()) for r in library]


def test_records_before_a_failing_cell_are_already_printed(tmp_path, capsys, monkeypatch):
    calls = []

    def third_cell_fails():
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("cell 3 failed")

    _spy_trace_new(monkeypatch, third_cell_fails)
    cfgfile = tmp_path / "t.cfg"
    cfgfile.write_text("n = 1..5\nk = 12\nN = 1\n")
    with pytest.raises(RuntimeError, match="cell 3"):
        harness.main(["trace", "--config", str(cfgfile)])
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["parameters"]["n"] for line in lines] == [1, 2]


def test_verify_full_is_one_cell_running_the_acceptance_suite(monkeypatch):
    suites = []
    monkeypatch.setattr(pytest, "main", lambda args: suites.append(args[-1]) or 0)
    recs = run_experiment("verify", {"scope": "full"})
    assert [Path(s).name for s in suites] == ["test_acceptance.py"]
    assert [(r.experiment, r.parameters, r.outputs, r.provenance["truncation"]) for r in recs] == [
        ("verify", {"scope": "full"}, {"pytest_exit_code": 0}, {"mode": "acceptance suite"})]


def test_closed_stdout_ends_the_sweep_without_a_traceback(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, HECKE_SPECTRA_CACHE=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cfgfile = tmp_path / "big.cfg"
    cfgfile.write_text("n = 1..3000\nk = 12\nN = 1\n")  # far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "hecke_spectra.harness", "trace", "--config", str(cfgfile)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert json.loads(first)["parameters"]["n"] == 1
    assert b"Traceback" not in stderr, stderr.decode(errors="replace")
