"""Command-line interface: golden outputs byte-for-byte, exit codes, and
diagnostics."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import syzcx
from syzcx import cli
from syzcx.cli import main
from syzcx.errors import (
    AlgebraSyntaxError,
    InternalInconsistencyError,
    MathPreconditionError,
    SyzcxError,
    ValidationError,
)

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"

FIB = str(DATA / "fib.alg")
LOOP3 = str(DATA / "loop3.alg")
A2 = str(DATA / "a2.alg")


def cli_process(argv, preexec_fn=None, timeout=None, **env):
    """Run `python -m syzcx.cli argv` with this checkout's syzcx importable."""
    src = str(Path(syzcx.__file__).resolve().parents[1])
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "syzcx.cli"] + argv,
                          capture_output=True, text=True, env=full_env,
                          preexec_fn=preexec_fn, timeout=timeout)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


GOLDEN_CASES = [
    ("validate_fib.json", ["validate", FIB]),
    ("paths_loop3.json", ["paths", LOOP3]),
    ("syzquiver_fib_s1.json", ["syzquiver", FIB, "--module", "S1", "--json"]),
    ("syzquiver_fib_s1.dot", ["syzquiver", FIB, "--module", "S1", "--dot"]),
    ("complexity_fib_s1.json", ["complexity", FIB, "--module", "S1"]),
    ("complexity_a2_s1.json", ["complexity", A2, "--module", "S1"]),
    ("lower_bound_fib.json",
     ["lower-bound", FIB, "--partial", str(DATA / "partial_fib.json"),
      "--vertex", "0"]),
    ("curvature_check_golden.json", ["curvature", "check", "[-1,-1,1]"]),
    ("curvature_check_indeterminate.json",
     ["curvature", "check", "[-1,-1,0,0,0,1]"]),
    ("curvature_combine_product.json",
     ["curvature", "combine", "--op", "product", "[-1,-1,1]", "[-1,-1,1]"]),
    ("curvature_combine_root.json",
     ["curvature", "combine", "--op", "root", "[1,-3,1]", "2"]),
    ("curvature_realize_12.json", ["curvature", "realize", "1,2"]),
    ("realize_loop_l1.txt",
     ["realize-class", "--quiver", str(DATA / "loopquiver.alg"),
      "--ell", "1"]),
    ("convolve_phi.json", ["convolve", "[-1,-1,1]^n", "[-1,-1,1]^n*n^1"]),
    ("oracle_dims_fib.json",
     ["oracle", "dims", FIB, "--module", "S1", "-n", "10"]),
    ("oracle_dims_xyz.json",
     ["oracle", "dims", "--builtin", "xyz-local", "--module", "k", "-n", "5"]),
    ("oracle_crosscheck_fib.json",
     ["oracle", "crosscheck", FIB, "--module", "S1", "-n", "10"]),
]


@pytest.mark.parametrize("golden,argv",
                         GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_golden(golden, argv):
    rc, out, err = run_cli(argv)
    assert rc == 0, err
    assert err == ""
    assert out == (GOLDEN / golden).read_text()


def test_module_entry_point():
    proc = cli_process(["validate", FIB])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["algebra"] == "fib"


# -- exit code 1: usage -----------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["no-such-command"],
    ["syzquiver", FIB],                       # missing --module
    ["syzquiver", FIB, "--module", "S1", "--dot", "--json"],
    ["curvature", "realize", "1,-2"],          # negative count
    ["complexity"],                            # missing file
])
def test_usage_errors(argv):
    rc, _, err = run_cli(argv)
    assert rc == 1
    assert "error[usage]" in err


# -- exit code 2: parse ------------------------------------------------------------

def test_parse_missing_file():
    rc, _, err = run_cli(["validate", str(DATA / "does_not_exist.alg")])
    assert rc == 2
    assert "error[io]" in err


def test_parse_bad_algebra(tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nvertex 1\nwhatever\n")
    rc, _, err = run_cli(["validate", str(bad)])
    assert rc == 2
    assert "error[syntax_error]" in err and "line 3" in err


def test_parse_bad_partial_json():
    rc, _, err = run_cli(["lower-bound", FIB, "--partial",
                          str(DATA / "notjson.json"), "--vertex", "0"])
    assert rc == 2
    assert "error[json]" in err


def test_parse_bad_class_literal():
    rc, _, err = run_cli(["convolve", "wat", "[-1,-1,1]^n"])
    assert rc == 2
    assert "error[input]" in err


def test_parse_bad_coeffs():
    rc, _, err = run_cli(["curvature", "check", "[1,two]"])
    assert rc == 2
    assert "error[input]" in err


# -- exit code 3: validation ---------------------------------------------------------

def test_validation_unknown_module():
    rc, _, err = run_cli(["complexity", FIB, "--module", "nope"])
    assert rc == 3
    assert "error[validation_error]" in err


def test_validation_infinite_dimensional():
    rc, _, err = run_cli(["validate", str(DATA / "infinite.alg")])
    assert rc == 3
    assert "error[infinite_dimensional]" in err
    assert "nonzero cycle l" in err


def test_validation_vertex_out_of_range():
    rc, _, err = run_cli(["lower-bound", FIB, "--partial",
                          str(DATA / "partial_fib.json"), "--vertex", "7"])
    assert rc == 3


def test_validation_invalid_partial():
    rc, _, err = run_cli(["lower-bound", FIB, "--partial",
                          str(DATA / "partial_bogus.json"), "--vertex", "0"])
    assert rc == 3
    assert "error[invalid_partial]" in err


def test_validation_unknown_builtin():
    rc, _, err = run_cli(["oracle", "dims", "--builtin", "nope",
                          "--module", "k", "-n", "3"])
    assert rc == 3


def test_validation_unknown_table_module():
    rc, _, err = run_cli(["oracle", "dims", "--builtin", "xyz-local",
                          "--module", "nope", "-n", "3"])
    assert rc == 3
    assert "available: k, regular" in err


# -- exit code 4: math preconditions ---------------------------------------------------

def test_math_non_monic():
    rc, _, err = run_cli(["curvature", "check", "[-1,2]"])
    assert rc == 4
    assert "error[not_monic]" in err


def test_math_trailing_zero_companion():
    rc, _, err = run_cli(["curvature", "realize", "1,0"])
    assert rc == 4
    assert "error[trailing_zero]" in err


def test_math_not_strongly_connected():
    rc, _, err = run_cli(["realize-class", "--quiver", A2, "--ell", "0"])
    assert rc == 4
    assert "error[not_strongly_connected]" in err


# -- exit code 5: internal inconsistency ------------------------------------------------

def test_internal_crosscheck_mismatch(monkeypatch):
    from syzcx import oracle as oracle_mod
    from syzcx.oracle import CrosscheckReport

    def fake(A, M, N):
        return CrosscheckReport((1, 1, 2), (1, 1, 3), False, 2)

    monkeypatch.setattr(cli, "crosscheck", fake)
    rc, out, err = run_cli(["oracle", "crosscheck", FIB,
                            "--module", "S1", "-n", "2"])
    assert rc == 5
    assert "error[inconsistent]" in err
    assert json.loads(out)["first_mismatch"] == 2
    del oracle_mod


def test_internal_prime_disagreement(monkeypatch):
    from syzcx.errors import PrimeDisagreementError

    def boom(A, M, N):
        raise PrimeDisagreementError(
            "syzygy dimensions differ between primes at n=3"
        )

    monkeypatch.setattr(cli, "crosscheck", boom)
    rc, _, err = run_cli(["oracle", "crosscheck", FIB,
                          "--module", "S1", "-n", "4"])
    assert rc == 5
    assert "error[prime_disagreement]" in err


def test_bare_syzcx_error_gives_exit_5_and_one_line(monkeypatch):
    def boom(A, M, N):
        raise SyzcxError("no category")

    monkeypatch.setattr(cli, "crosscheck", boom)
    rc, out, err = run_cli(["oracle", "crosscheck", FIB,
                            "--module", "S1", "-n", "4"])
    assert (rc, out, err) == (5, "", "error[error]: no category\n")


# Exit status by error category, as the README's "Exit codes" paragraph
# gives it; anything outside these categories exits 5.
CATEGORY_EXIT_CODES = [
    (cli.UsageError, 1),
    (cli.InputParseError, 2),
    (AlgebraSyntaxError, 2),
    (ValidationError, 3),
    (MathPreconditionError, 4),
    (InternalInconsistencyError, 5),
]


def test_every_error_class_has_its_category_exit_code():
    classes, todo = [], [SyzcxError]
    while todo:
        c = todo.pop()
        classes.append(c)
        todo.extend(c.__subclasses__())
    assert len(classes) > 20
    for c in classes:
        want = next((code for base, code in CATEGORY_EXIT_CODES
                     if issubclass(c, base)), 5)
        assert c.exit_code == want, c.__name__


# -- one diagnostic line, never a traceback --------------------------------------

BAD_INPUT_CASES = [
    ("negative_ell", ["realize-class", "--quiver",
                      str(DATA / "loopquiver.alg"), "--ell", "-1"], {}, 1, ""),
    ("base_below_one", ["convolve", "[0,1]^n", "2^n"], {}, 2, ""),
    ("negative_degree", ["convolve", "2^n*n^-1", "2^n"], {}, 2, ""),
    ("directory", ["validate", str(DATA)], {}, 2, ""),
    ("not_utf8", ["validate", "{tmp}/latin1.alg"], {}, 2, "{tmp}/latin1.alg"),
    ("partial_not_utf8", ["lower-bound", FIB, "--partial", "{tmp}/latin1.json",
                          "--vertex", "0"], {}, 2, "{tmp}/latin1.json"),
    ("start_not_int", ["lower-bound", FIB, "--partial",
                       "{tmp}/start_str.json", "--vertex", "0"], {}, 3, ""),
    ("start_id_not_int", ["lower-bound", FIB, "--partial",
                          "{tmp}/start_dict.json", "--vertex", "0"], {}, 3, ""),
    ("start_null", ["lower-bound", FIB, "--partial", "{tmp}/start_null.json",
                    "--vertex", "0"], {}, 3, "error[invalid_partial]"),
    ("start_number", ["lower-bound", FIB, "--partial", "{tmp}/start_number.json",
                      "--vertex", "0"], {}, 3, "error[invalid_partial]"),
    ("killer_elsewhere", ["lower-bound", FIB, "--partial",
                          "{tmp}/killer_elsewhere.json", "--vertex", "0"], {},
     3, "error[invalid_partial]"),
    ("vertex_not_string", ["lower-bound", FIB, "--partial",
                           "{tmp}/vertex_list.json", "--vertex", "0"], {},
     3, "error[invalid_partial]"),
    ("dim_cap_not_int", ["oracle", "dims", FIB, "--module", "S1", "-n", "2"],
     {"SYZCX_DIM_CAP": "abc"}, 3, ""),
    ("dim_cap_partial", ["oracle", "dims", FIB, "--module", "S1", "-n", "20"],
     {"SYZCX_DIM_CAP": "50"}, 4, "[1, 1, 2, 3, 5, 8, 13, 21, 34, 55]"),
]


@pytest.mark.parametrize("argv,env,code,needle",
                         [c[1:] for c in BAD_INPUT_CASES],
                         ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_input_gives_one_error_line(tmp_path, argv, env, code, needle):
    (tmp_path / "latin1.alg").write_bytes("algebra \xe9\n".encode("latin-1"))
    (tmp_path / "latin1.json").write_bytes('{"x": "\xe9"}'.encode("latin-1"))
    partial = json.loads((DATA / "partial_fib.json").read_text())
    v0, v1 = partial["vertices"]
    elsewhere = [dict(v0, killers=["b"]), v1]
    listed = [dict(v0, vertex=["1"], killers=[]), v1]
    for name, change in (("start_str.json", {"start": ["x"]}),
                         ("start_dict.json", {"start": [{"id": "x"}]}),
                         ("start_null.json", {"start": None}),
                         ("start_number.json", {"start": 5}),
                         ("killer_elsewhere.json", {"vertices": elsewhere}),
                         ("vertex_list.json", {"vertices": listed})):
        (tmp_path / name).write_text(json.dumps(dict(partial, **change)))
    proc = cli_process([a.format(tmp=tmp_path) for a in argv], **env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error["), proc.stderr
    assert needle.format(tmp=tmp_path) in lines[0]


def test_memory_error_in_a_syzygy_step_keeps_the_partial_result(monkeypatch):
    from syzcx import oracle

    def step(R):
        if R.total_dim > 2:
            raise MemoryError
        return oracle.syzygy_rep(R)

    monkeypatch.setattr(oracle.TableRepresentation, "syzygy", step)
    rc, out, err = run_cli(["oracle", "dims", FIB, "--module", "S1", "-n", "8"])
    assert rc == 4 and out == ""
    assert err.startswith("error[dimension_cap_exceeded]: out of memory")
    assert err.count("\n") == 1 and "[1, 1, 2, 3]" in err


def test_out_of_memory_gives_one_error_line():
    """p(x^k) for k = 10^9 needs about 8 GB; under a 2 GiB address-space
    limit, set in the child only, the call ends in one error line. One BLAS
    thread keeps numpy's import well inside the limit on any core count."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = cli_process(["curvature", "combine", "--op", "root", "[-1,1]",
                        "1000000000"], preexec_fn=limit,
                       OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == "error[out_of_memory]: out of memory\n"


def test_curvature_check_with_29_digit_constant_term():
    """x^2 - x + (10^28 + 7) has no real root; the integer roots come from
    Sturm counts, not from the divisors of the constant term."""
    proc = cli_process(["curvature", "check", f"[{10 ** 28 + 7},-1,1]"],
                       timeout=20)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["status"], doc["reason"]) == ("not_realizable", "no real root")


def test_line_algebra_is_counted_not_listed(tmp_path):
    """41 vertices in a row, two parallel arrows per step, no relations:
    sum_k (41 - k) * 2^k = 4,398,046,511,061 nonzero paths. validate,
    syzquiver and complexity read the automaton's counts, and the oracle
    refuses before it lists the basis. Each call runs under a 1 GiB
    address-space limit, set in the child only, and a 20 s timeout."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    lines = ["algebra line"] + [f"vertex v{i}" for i in range(41)]
    for i in range(40):
        lines += [f"arrow a{i} : v{i} -> v{i + 1}",
                  f"arrow b{i} : v{i} -> v{i + 1}"]
    f = tmp_path / "line.alg"
    f.write_text("\n".join(lines + ["module S0 = S(v0)"]) + "\n")

    def run(argv):
        return cli_process(argv + [str(f)], preexec_fn=limit, timeout=20,
                           OPENBLAS_NUM_THREADS="1")

    proc = run(["validate"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dimension"] == 4398046511061
    for cmd in (["syzquiver", "--module", "S0"],
                ["complexity", "--module", "S0"]):
        proc = run(cmd)
        assert proc.returncode == 0, proc.stderr
    proc = run(["oracle", "dims", "--module", "S0", "-n", "1"])
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("error[dimension_cap_exceeded]: ")
    assert proc.stderr.count("\n") == 1


def test_xyz_local_runs_to_the_dimension_cap_in_1_gib():
    """xyz-local k to n = 99 steps through dimension 167,761 and stops at the
    cap, not at memory: dense actions ran out of memory from dimension 9,349
    on. Under a 1 GiB address-space limit, set in the child only, and a 30 s
    timeout, the call ends in one error line naming the cap."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = cli_process(["oracle", "dims", "--builtin", "xyz-local", "--module",
                        "k", "-n", "99"], preexec_fn=limit, timeout=30,
                       OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("error[dimension_cap_exceeded]: ")
    assert proc.stderr.count("\n") == 1
    assert "exceeds the cap 200000" in proc.stderr
    assert proc.stderr.rstrip().endswith("167761, 439204]")


HUGE = -10 ** 80


@pytest.mark.parametrize("argv", [
    ["curvature", "check", f"[{HUGE},1]"],
    ["convolve", f"[{HUGE},1]^n", "2^n"],
], ids=["curvature_check", "convolve"])
def test_huge_root_prints_its_decimal(argv):
    """The root 10^80 has 81 digits before the point; its 12-place decimal
    is rounded in integers, at any size."""
    proc = cli_process(argv, timeout=20)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    assert f"{-HUGE}.000000000000" in proc.stdout


def _loop_algebra(tmp_path, length):
    """One vertex, one loop x, and the relation x^length."""
    f = tmp_path / f"loop{length}.alg"
    f.write_text("\n".join(["algebra loop", "vertex v", "arrow x : v -> v",
                            "relation " + ".".join(["x"] * length),
                            "module S = S(v)"]) + "\n")
    return str(f)


@pytest.mark.parametrize("argv,timeout", [
    (["complexity", "--module", "S"], 20),
    (["syzquiver", "--module", "S"], 20),
    (["oracle", "crosscheck", "--module", "S", "-n", "4"], 20),
], ids=["complexity", "syzquiver", "oracle_crosscheck"])
def test_relation_of_length_3000(tmp_path, argv, timeout):
    """A relation 3,000 arrows long: the killer search keeps its own stack
    instead of recursing once per arrow, and the relation scans look only
    at relation lengths. The syzygies of the simple alternate between
    dimensions 1 and 2,999, so its class is 1^n. The oracle builds the
    images of the 3,000 basis elements of each cover column by column, so a
    step of the 2,999-dimensional module costs its nonzeros, not 3,000
    products of a 2,999 x 2,999 action."""
    proc = cli_process(argv + [_loop_algebra(tmp_path, 3000)], timeout=timeout,
                       OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    doc = json.loads(proc.stdout)
    if argv[0] == "complexity":
        base = doc["class"]["base"]
        assert (base["approx"], doc["class"]["degree"]) == ("1.000000000000", 0)
    if argv[0] == "oracle":
        assert doc["agree"] and doc["oracle"] == [1, 2999, 1, 2999, 1]


def test_out_of_memory_in_realize(monkeypatch):
    def realize(coeffs):
        raise MemoryError

    monkeypatch.setattr(cli, "realize_companion", realize)
    rc, out, err = run_cli(["curvature", "realize", "1000000000"])
    assert (rc, out, err) == (4, "", "error[out_of_memory]: out of memory\n")


# -- fuzzing: every call ends with an exit code, never an exception ------------------

def _mutate_text(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars))
        if rng.random() < 0.5:
            del chars[i]
        else:
            chars[i] = rng.choice(".:->=*()\n 0123ab")
    return "".join(chars)


def _fuzz_files(rng, tmp_path):
    """Algebra and partial-quiver files: good ones, mutated ones, random
    bytes, a missing file and a directory."""
    algebras = [FIB, LOOP3, A2, str(DATA / "infinite.alg"), str(DATA)]
    partials = [str(DATA / n) for n in ("partial_fib.json", "partial_bogus.json",
                                        "notjson.json")]
    fib_text = (DATA / "fib.alg").read_text()
    partial_text = (DATA / "partial_fib.json").read_text()
    for i in range(6):
        for kind, text, out in (("alg", fib_text, algebras),
                                ("json", partial_text, partials)):
            path = tmp_path / f"mutated{i}.{kind}"
            path.write_text(_mutate_text(rng, text))
            out.append(str(path))
            path = tmp_path / f"bytes{i}.{kind}"
            path.write_bytes(rng.randbytes(rng.randint(0, 40)))
            out.append(str(path))
    missing = str(tmp_path / "missing.alg")
    return algebras + [missing], partials + [missing]


def _fuzz_argv(rng, algebras, partials):
    def num():
        return str(rng.choice([-1, 0, 1, 2, 3, 4]))

    def coeffs(most=4):
        body = ",".join(str(rng.randint(-3, 3)) for _ in range(rng.randint(0, most)))
        return rng.choice(["[{}]", "{}", "[{}", "{},x"]).format(body)

    def klass():
        base = rng.choice(["2", "0", "1", "-1", "[-1,-1,1]", "[0,1]", "[1]",
                           "1.618033988750", "1.5", "x", coeffs()])
        return rng.choice(["{}^n", "{}^n*n^" + num(), "{}", "0", "0:" + num(),
                           "0:x"]).format(base)

    def module():
        return rng.choice(["S1", "S2", "P1", "Mix", "nope"])

    def alg():  # the three good algebras half of the time
        return rng.choice(algebras[:3] if rng.random() < 0.5 else algebras)

    def partial():
        return rng.choice(partials[:1] if rng.random() < 0.5 else partials)

    templates = [
        lambda: ["validate", alg()],
        lambda: ["paths", alg()],
        lambda: ["syzquiver", alg(), "--module", module(),
                 rng.choice(["--dot", "--json"])],
        lambda: ["complexity", alg(), "--module", module()],
        lambda: ["lower-bound", alg(), "--partial", partial(),
                 "--vertex", num()],
        lambda: ["curvature", "check", coeffs(5), "--assume-irreducible"][
            :rng.randint(3, 4)],
        lambda: ["curvature", "combine", "--op",
                 rng.choice(["sum", "product", "root", "max"]), coeffs(3),
                 rng.choice([coeffs(3), num()])],
        lambda: ["curvature", "realize",
                 ",".join(num().lstrip("-") for _ in range(rng.randint(1, 4)))],
        lambda: ["realize-class", "--quiver", alg(), "--ell", num()],
        lambda: ["convolve", klass(), klass()],
        lambda: ["oracle", "dims", alg(), "--module", module(), "-n", num()],
        lambda: ["oracle", "dims", "--builtin",
                 rng.choice(["xyz-local", "nope"]), "--module",
                 rng.choice(["k", "regular", "x"]), "-n", num()],
        lambda: ["oracle", "crosscheck", alg(), "--module", module(),
                 "-n", num()],
    ]
    argv = rng.choice(templates)()
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        i = rng.randrange(len(argv) + 1)
        op = rng.randrange(3)
        if op == 0 and argv:
            del argv[min(i, len(argv) - 1)]
        elif op == 1:
            argv.insert(i, rng.choice(["--module", "-n", "x", "", "--dot",
                                       num(), alg()]))
        elif len(argv) > 1:
            j = rng.randrange(len(argv))
            argv[j], argv[i - 1] = argv[i - 1], argv[j]
    return argv


def test_fuzzed_arguments_exit_cleanly(tmp_path):
    rng = random.Random(0xF022)
    algebras, partials = _fuzz_files(rng, tmp_path)
    for _ in range(300):
        argv = _fuzz_argv(rng, algebras, partials)
        rc, _, err = run_cli(argv)
        assert 0 <= rc <= 5, (argv, rc, err)
        if rc:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error["), (argv, err)


# -- help text ----------------------------------------------------------------------

def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
