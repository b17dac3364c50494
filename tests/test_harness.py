import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from lfmoments import cli
from lfmoments import harness as ha
from lfmoments import heckespace as hs
from lfmoments.moments import build_moment_record


@pytest.fixture(scope="module")
def small_tables():
    space = hs.build_space(37)
    return hs.extend_prime_eigenvalues(space, hs.eigen_split(space, seed=0), 512)


class TestCacheFile:
    def test_roundtrip_bit_exact(self, small_tables, tmp_path):
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        q, dim, seed, n_max, loaded = ha.load_eigendata(path)
        assert (q, dim, seed, n_max) == (37, 2, 0, 512)
        for a, b in zip(small_tables, loaded):
            assert a.index == b.index and a.sign == b.sign
            assert np.array_equal(a.primes, b.primes)
            assert np.array_equal(a.prime_lambda, b.prime_lambda)  # bit-identical

    def test_rewrite_byte_identical(self, small_tables, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ha.save_eigendata(p1, 37, 0, 512, small_tables)
        ha.save_eigendata(p2, 37, 0, 512, small_tables)
        assert p1.read_bytes() == p2.read_bytes()

    def test_reload_then_extend_reproduces_primes(self, small_tables, tmp_path):
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        *_, loaded = ha.load_eigendata(path)
        for a, b in zip(small_tables, loaded):
            full = hs.lambda_extend(b, 512).full(512)
            assert np.array_equal(full[a.primes], a.prime_lambda)

    def test_concurrent_writers_leave_one_complete_file(self, small_tables, tmp_path):
        ref = tmp_path / "ref.json"
        ha.save_eigendata(ref, 37, 0, 512, small_tables)
        path = tmp_path / "cache" / ha.cache_file_name(37, 0)
        path.parent.mkdir()
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        start = threading.Barrier(2)

        def writer():
            start.wait()
            for _ in range(50):
                ha.save_eigendata(path, 37, 0, 512, small_tables)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer) for _ in range(2)]
            for th in threads:
                th.start()
            # a reader alongside the two writers must never see a partial file
            while any(th.is_alive() for th in threads):
                assert ha.load_eigendata(path)[1] == 2
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(old_interval)
        assert path.read_bytes() == ref.read_bytes()
        assert list(path.parent.iterdir()) == [path]  # no temp file left behind
        assert ha.load_eigendata(path)[:4] == (37, 2, 0, 512)

    def test_canonical_json_sorted_keys(self, small_tables, tmp_path):
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        data = json.loads(path.read_text())
        assert list(data) == sorted(data)
        assert data["format_version"] == 1

    def test_get_eigendata_uses_cache(self, tmp_path):
        t1 = ha.get_eigendata(11, 256, 0, tmp_path)
        stamp = (tmp_path / ha.cache_file_name(11, 0)).read_bytes()
        t2 = ha.get_eigendata(11, 256, 0, tmp_path)
        assert (tmp_path / ha.cache_file_name(11, 0)).read_bytes() == stamp
        assert np.array_equal(t1[0].prime_lambda, t2[0].prime_lambda)

    def test_partial_cache_names_form_and_prime(self, small_tables, tmp_path):
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        data = json.loads(path.read_text())
        del data["forms"][1]["lambda"][50:]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="cache form 1: no lambda at the prime 233$"):
            ha.load_eigendata(path)

    def test_factor_plan_built_once_per_n_max(self, eigen101, tmp_path):
        _, tables = eigen101
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 101, 0, 4096, tables)
        ha._parse_eigendata.cache_clear()  # a memoized parse would skip the extension
        hs._multiplicative_plan.cache_clear()
        for _ in range(2):
            *_, loaded = ha.load_eigendata(path)
            for t in loaded:
                t.full()
        assert len(loaded) == 8
        assert hs._multiplicative_plan.cache_info().misses == 1

    @pytest.mark.parametrize("corrupt", ["null", "NaN", "Infinity", "string", "short-pair",
                                         "long-pair", "sign-0"])
    def test_corrupt_cache_rebuilds(self, corrupt, tmp_path):
        clean_dir, dirty_dir = tmp_path / "clean", tmp_path / "dirty"
        clean = ha.get_eigendata(11, 1024, 0, clean_dir)
        record = build_moment_record(clean, 11, 2, 1, 0.0, 1e-6)
        ha.get_eigendata(11, 1024, 0, dirty_dir)
        path = dirty_dir / ha.cache_file_name(11, 0)
        data = json.loads(path.read_text())
        form = data["forms"][0]
        if corrupt == "sign-0":
            form["sign"] = 0
        elif corrupt == "short-pair":
            form["lambda"][1] = [3]
        elif corrupt == "long-pair":
            form["lambda"][1].append(0.5)
        else:  # json.dumps writes the floats as the literals NaN and Infinity
            form["lambda"][1][1] = {"null": None, "NaN": math.nan, "Infinity": math.inf,
                                    "string": "x"}[corrupt]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="cache form 0: "):
            ha.load_eigendata(path)
        tables = ha.get_eigendata(11, 1024, 0, dirty_dir)
        assert path.read_bytes() == (clean_dir / ha.cache_file_name(11, 0)).read_bytes()
        assert build_moment_record(tables, 11, 2, 1, 0.0, 1e-6) == record

    @pytest.mark.parametrize("malformed", ["forms-null", "top-level-list", "form-not-object",
                                           "n_max-string", "no-q"])
    def test_malformed_cache_rebuilds(self, malformed, tmp_path):
        clean_dir, dirty_dir = tmp_path / "clean", tmp_path / "dirty"
        clean = ha.get_eigendata(11, 1024, 0, clean_dir)
        record = build_moment_record(clean, 11, 2, 1, 0.0, 1e-6)
        ha.get_eigendata(11, 1024, 0, dirty_dir)
        path = dirty_dir / ha.cache_file_name(11, 0)
        data = json.loads(path.read_text())
        data = {"forms-null": {**data, "forms": None}, "top-level-list": [],
                "form-not-object": {**data, "forms": ["x"]},
                "n_max-string": {**data, "n_max": str(data["n_max"])},
                "no-q": {k: v for k, v in data.items() if k != "q"}}[malformed]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(f"cache file {path}: ")):
            ha.load_eigendata(path)
        tables = ha.get_eigendata(11, 1024, 0, dirty_dir)
        assert path.read_bytes() == (clean_dir / ha.cache_file_name(11, 0)).read_bytes()
        assert build_moment_record(tables, 11, 2, 1, 0.0, 1e-6) == record

    def test_rebuild_when_cache_too_short(self, tmp_path):
        ha.get_eigendata(11, 128, 0, tmp_path)
        tables = ha.get_eigendata(11, 512, 0, tmp_path)
        assert tables[0].n_max >= 512


class TestParsedMemo:
    def test_rewrite_with_larger_n_max_is_reread(self, tmp_path):
        ha.get_eigendata(11, 128, 0, tmp_path)
        path = tmp_path / ha.cache_file_name(11, 0)
        assert ha.load_eigendata(path)[3] == 128
        ha.get_eigendata(11, 512, 0, tmp_path)  # rebuilt and saved over the file
        *_, n_max, tables = ha.load_eigendata(path)
        assert n_max == tables[0].n_max == 512

    def test_same_size_rewrite_in_place_is_reread(self, small_tables, tmp_path):
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        *_, before = ha.load_eigendata(path)
        text = path.read_text()
        head, lam2 = re.search(r'("lambda": \[\[2, )(-?[0-9.]+)', text).groups()
        digit = "1" if lam2[-1] != "1" else "2"
        edited = text.replace(head + lam2, head + lam2[:-1] + digit, 1)
        assert len(edited) == len(text) and edited != text
        path.write_text(edited)  # same size, perhaps the same mtime tick
        *_, after = ha.load_eigendata(path)
        assert after[0].prime_lambda[0] != before[0].prime_lambda[0]
        assert after[0].prime_lambda[0] == float(lam2[:-1] + digit)

    def test_shared_arrays_are_read_only(self, small_tables, tmp_path):
        path = tmp_path / "cache.json"
        ha.save_eigendata(path, 37, 0, 512, small_tables)
        *_, tables = ha.load_eigendata(path)
        for array in (tables[0].primes, tables[0].prime_lambda, tables[0].full()):
            with pytest.raises(ValueError, match="read-only"):
                array[2] = 0.5
        tables.pop()  # the list is the caller's own
        *_, again = ha.load_eigendata(path)
        assert len(again) == 2 and again[0] is tables[0]

    def test_corrupt_file_raises_on_every_load(self, tmp_path):
        clean_dir, dirty_dir = tmp_path / "clean", tmp_path / "dirty"
        ha.get_eigendata(11, 1024, 0, clean_dir)
        ha.get_eigendata(11, 1024, 0, dirty_dir)
        path = dirty_dir / ha.cache_file_name(11, 0)
        ha.load_eigendata(path)  # the clean bytes are memoized
        path.write_text(re.sub(r'"sign": -?1', '"sign": 0', path.read_text(), count=1))
        for _ in range(2):
            with pytest.raises(ValueError, match="cache form 0: sign 0 is not"):
                ha.load_eigendata(path)
        ha.get_eigendata(11, 1024, 0, dirty_dir)
        assert path.read_bytes() == (clean_dir / ha.cache_file_name(11, 0)).read_bytes()


class TestSweepConfig:
    def test_range_warnings(self):
        config = ha.SweepConfig(q_min=200, q_max=250, p_list=(2,), j_list=(1, 2))
        warnings = config.validate()
        assert len(warnings) == 2  # both moment ranges violated at desk scale

    def test_tol_bounds(self):
        with pytest.raises(ValueError):
            ha.SweepConfig(q_min=11, q_max=13, tol=1e-3).validate()

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            ha.SweepConfig(q_min=11, q_max=13, p_list=(4,)).validate()


class TestSweep:
    def test_rows_sorted_and_complete(self, tmp_path):
        config = ha.SweepConfig(
            q_min=11, q_max=31, p_list=(2,), j_list=(1,), t_list=(0.0,),
            tol=1e-4, cache_dir=str(tmp_path),
        )
        rows, _ = ha.run_sweep(config)
        qs = [r["q"] for r in rows]
        assert qs == sorted(qs)
        assert len(rows) == 7  # primes 11, 13, 17, 19, 23, 29, 31

    def test_empty_level_row(self, tmp_path):
        config = ha.SweepConfig(
            q_min=13, q_max=13, p_list=(2,), j_list=(1,), t_list=(0.0,),
            tol=1e-4, cache_dir=str(tmp_path),
        )
        rows, _ = ha.run_sweep(config)
        assert rows[0]["dim"] == 0
        assert rows[0]["empirical_re"] == 0.0
        assert rows[0]["error"] == ""

    def test_crash_isolation(self, tmp_path, monkeypatch):
        from lfmoments import harness as ha_mod

        real = ha_mod.build_moment_record

        def boom(tables, q, p, j, t, tol):
            if q == 17:
                raise RuntimeError("synthetic failure")
            return real(tables, q, p, j, t, tol)

        monkeypatch.setattr(ha_mod, "build_moment_record", boom)
        config = ha.SweepConfig(
            q_min=11, q_max=19, p_list=(2,), j_list=(1,), t_list=(0.0,),
            tol=1e-4, cache_dir=str(tmp_path),
        )
        rows, _ = ha.run_sweep(config)
        errs = [r for r in rows if r["error"]]
        assert len(errs) == 1 and errs[0]["q"] == 17
        assert len(rows) == 4

    def test_csv_determinism(self, tmp_path):
        config = ha.SweepConfig(
            q_min=11, q_max=31, p_list=(2,), j_list=(1,), t_list=(0.0,),
            tol=1e-4, seed=0, cache_dir=str(tmp_path),
        )
        rows1, _ = ha.run_sweep(config)
        rows2, _ = ha.run_sweep(config)
        p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        ha.write_sweep_csv(rows1, p1)
        ha.write_sweep_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == ",".join(ha.SWEEP_COLUMNS)

    def test_tolerance_insensitivity(self, tmp_path):
        base = dict(q_min=11, q_max=31, p_list=(2,), j_list=(1,), t_list=(0.0,),
                    cache_dir=str(tmp_path))
        rows_tight, _ = ha.run_sweep(ha.SweepConfig(tol=1e-8, **base))
        rows_loose, _ = ha.run_sweep(ha.SweepConfig(tol=1e-4, **base))
        for a, b in zip(rows_tight, rows_loose):
            assert abs(a["empirical_re"] - b["empirical_re"]) < 1e-4


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "lfmoments.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_mainterm(self):
        out = self._run("mainterm", "--q", "101", "--p", "2", "--j", "1", "--t", "0")
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert abs(data["main_term"][0] - (-153.6285770)) < 1e-5

    def test_eigendata_and_moment(self, tmp_path):
        out = self._run("eigendata", "--q", "11", "--n-max", "1024", "--seed", "0",
                        "--cache-dir", str(tmp_path))
        assert out.returncode == 0
        assert (tmp_path / "eigendata_q11_seed0.json").exists()
        out = self._run("moment", "--q", "11", "--p", "2", "--j", "1", "--t", "0",
                        "--tol", "1e-6", "--cache-dir", str(tmp_path))
        assert out.returncode == 0
        data = json.loads(out.stdout)
        assert abs(data["empirical"][0] - (-0.0911246)) < 1e-5

    @pytest.mark.parametrize("p", ["4", "1", "37"])
    def test_p_not_a_prime_other_than_q_exits_3(self, p, tmp_path):
        out = self._run("mainterm", "--q", "37", "--p", p)
        assert out.returncode == 3 and "error: p must" in out.stderr
        out = self._run("moment", "--q", "37", "--p", p, "--tol", "1e-4", "--cache-dir", str(tmp_path))
        assert out.returncode == 3 and "error: p must" in out.stderr

    def test_moment_rebuilds_partial_cache(self, tmp_path):
        out = self._run("eigendata", "--q", "11", "--n-max", "1024", "--seed", "0",
                        "--cache-dir", str(tmp_path))
        assert out.returncode == 0
        path = tmp_path / "eigendata_q11_seed0.json"
        data = json.loads(path.read_text())
        for form in data["forms"]:
            del form["lambda"][100:]  # valid JSON, but the primes stop at 541
        path.write_text(json.dumps(data))
        out = self._run("moment", "--q", "11", "--p", "2", "--j", "1", "--t", "0",
                        "--tol", "1e-6", "--cache-dir", str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert abs(json.loads(out.stdout)["empirical"][0] - (-0.0911246)) < 1e-5
        *_, n_max, tables = ha.load_eigendata(path)
        assert n_max >= 512
        assert tables[0].primes.tolist() == hs.primes_up_to(n_max).tolist()

    def test_eigendata_below_the_level(self, eigen101, tmp_path):
        # the sign needs lambda_f(q); the path engine computes it past n_max
        out = self._run("eigendata", "--q", "11", "--n-max", "4", "--cache-dir", str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["signs"] == [1]
        out = self._run("eigendata", "--q", "101", "--n-max", "64", "--seed", "0",
                        "--cache-dir", str(tmp_path))
        assert out.returncode == 0, out.stderr
        signs = json.loads(out.stdout)["signs"]
        assert signs == [t.sign for t in eigen101[1]] == [1, 1, 1, -1, 1, 1, 1, 1]
        *_, n_max, tables = ha.load_eigendata(tmp_path / ha.cache_file_name(101, 0))
        assert n_max == 64
        for t in tables:
            assert t.primes.tolist() == hs.primes_up_to(64).tolist()

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, lfmoments.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_sweep_loads_no_module_after_import(self, tmp_path):
        # numpy loads numpy.random and numpy.ma lazily; a sweep that did so
        # would make its first level slower than the others
        argv = ["sweep", "--qmin", "11", "--qmax", "11", "--p", "2", "--j", "1", "--t", "0",
                "--tol", "1e-6", "--cache-dir", str(tmp_path), "--out", str(tmp_path / "s.csv")]
        code = ("import sys, lfmoments.cli; before = set(sys.modules); "
                f"code = lfmoments.cli.main({argv!r}); "
                "print(code, sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "0 []"

    def test_import_loads_no_multiprocessing(self):
        code = "import sys, lfmoments, lfmoments.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_sweep_threads_write_the_same_csv(self, tmp_path):
        argv = ["sweep", "--qmin", "11", "--qmax", "31", "--tol", "1e-4"]
        for threads in ("1", "2"):
            assert cli.main([*argv, "--threads", threads, "--cache-dir", str(tmp_path / threads),
                             "--out", str(tmp_path / f"{threads}.csv")]) == 0
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()

    def test_repeated_moment_in_process(self, tmp_path, capsys):
        argv = ["moment", "--q", "11", "--p", "2", "--tol", "1e-6", "--cache-dir", str(tmp_path)]
        assert cli.main(["eigendata", "--q", "11", "--n-max", "1024",
                         "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        cli._build_parser.cache_clear()
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and abs(json.loads(outs[0])["empirical"][0] - (-0.0911246)) < 1e-5
        assert cli._build_parser.cache_info().misses == 1

    def test_eigendata_reports_the_n_max_of_its_file(self, tmp_path, capsys):
        argv = ["eigendata", "--q", "11", "--cache-dir", str(tmp_path), "--n-max"]
        assert cli.main([*argv, "64"]) == 0
        assert cli.main([*argv, "32"]) == 0  # served by the cached file, which reaches 64
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["n_max"] == 64
        assert ha.load_eigendata(summary["written"])[3] == 64

    @pytest.mark.parametrize("command", ["moment", "mainterm", "sweep"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_t_is_a_usage_error(self, command, t, tmp_path, capsys):
        argv = {"moment": ["moment", "--q", "11", "--p", "2", "--cache-dir", str(tmp_path)],
                "mainterm": ["mainterm", "--q", "11", "--p", "2"],
                "sweep": ["sweep", "--qmin", "11", "--qmax", "11", "--out", str(tmp_path / "s.csv")],
                }[command]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, f"--t={'0,' if command == 'sweep' else ''}{t}"])
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    def test_overflow_is_a_computation_error(self, capsys):
        assert cli.main(["mainterm", "--q", "101", "--p", "2", "--j", "2", "--t", "1e308"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["mainterm", "--q", "101", "--p", "2", "--j", "2", "--t", "1e30"],
        ["moment", "--q", "101", "--p", "2", "--j", "1", "--t", "300", "--tol", "1e-4"],
        ["sweep", "--qmin", "11", "--qmax", "11", "--t", "0,30"],
    ])
    def test_t_outside_main_term_range_is_a_computation_error(self, argv, tmp_path, capsys):
        # zeta(4+4it) in the main terms is accurate only for |t| <= 25; unchecked, 1e30 hangs
        # in special.zeta and 300 reaches afe_cutoff, whose Gamma(1+it)^2 underflows to 0
        extra = {"moment": ["--cache-dir", str(tmp_path)],
                 "sweep": ["--out", str(tmp_path / "s.csv")]}.get(argv[0], [])
        assert cli.main([*argv, *extra]) == 3
        assert capsys.readouterr().err.startswith("error: t must lie in [-25, 25]")
        assert not list(tmp_path.iterdir())  # rejected before any eigendata or CSV

    def test_cutoff_past_the_cap_is_a_usage_error(self, tmp_path, capsys):
        # at t=10 the q=101 cutoff is 4194304: every prime below 4.2e6, refused up front
        argv = ["moment", "--q", "101", "--p", "2", "--t", "10", "--tol", "1e-4",
                "--cache-dir", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "error: AFE cutoff 4194304 at q=101, t=10.0, tol=0.0001 exceeds AFE_CUTOFF_MAX = 131072")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--p", "--j", "--t"])
    def test_sweep_with_an_empty_list_fails(self, flag, tmp_path, capsys):
        # an empty grid would write a header-only CSV and report success having done nothing
        argv = ["sweep", "--qmin", "11", "--qmax", "13", "--tol", "1e-4", flag, "",
                "--cache-dir", str(tmp_path), "--out", str(tmp_path / "e.csv")]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: the {flag[2:]} list is empty")
        assert not list(tmp_path.iterdir())  # rejected before any eigendata or CSV

    def test_sweep_cell_past_the_cap_is_an_error_row(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--qmin", "11", "--qmax", "11", "--t", "0,20", "--tol", "1e-4",
                "--cache-dir", str(tmp_path), "--out", str(out)]
        assert cli.main(argv) == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[1].startswith("11,2,1,0,1,") and lines[1].endswith(",512,0,")
        assert lines[2].startswith("11,2,1,20,") and "AFE cutoff 33554432 at q=11" in lines[2]
        assert ha.load_eigendata(tmp_path / ha.cache_file_name(11, 0))[3] == 512  # built for t=0 alone

    def test_cache_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 33 forms at q=401: the engine's products are cut to sizes OpenBLAS runs on one thread
        caches = []
        for n in ("1", "2"):
            path = tmp_path / f"threads{n}.json"
            subprocess.run([sys.executable, "-m", "lfmoments.cli", "eigendata", "--q", "401",
                            "--n-max", "2048", "--out", str(path)], capture_output=True, timeout=600,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": n}, check=True)
            caches.append(path.read_bytes())
        assert caches[0] == caches[1]

    def test_usage_error_exit_code(self):
        out = self._run("moment", "--q", "11")
        assert out.returncode == 2

    def test_computation_error_exit_code(self, tmp_path):
        out = self._run("moment", "--q", "15", "--p", "2", "--cache-dir", str(tmp_path))
        assert out.returncode == 3

    def test_verify_special_suite(self):
        for suite in ("special", "all"):  # all: the smoothing, hecke, lvalue and moments suites too
            out = self._run("verify", "--suite", suite)
            assert out.returncode == 0, out.stdout
            report = json.loads(out.stdout)
            assert report["passed"] is True

    def test_sweep_cli(self, tmp_path):
        out = self._run(
            "sweep", "--qmin", "11", "--qmax", "23", "--p", "2", "--j", "1",
            "--t", "0", "--tol", "1e-4", "--cache-dir", str(tmp_path),
            "--out", str(tmp_path / "sweep.csv"),
        )
        assert out.returncode == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("q,p,j,t,dim,")
        assert len(lines) == 6  # header + 11,13,17,19,23
