"""Command-line interface.

Subcommands
    validate <file>                         check an algebra file, print a summary
    paths <file>                            list the nonzero paths
    syzquiver <file> --module M [--dot]     build and export a syzygy quiver
    complexity <file> --module M            growth class of the syzygy dimensions
    lower-bound <file> --partial Q.json --vertex V
                                            certified lower bound from a partial quiver
    curvature check <coeffs> [--assume-irreducible]
    curvature combine --op sum|product|root <coeffs> <coeffs-or-index>
    curvature realize <counts>              companion quiver for back-arrow counts a0..as
    realize-class --quiver <file> --ell L   algebra file whose simples hit [rho^n * n^s]
    convolve <class> <class>                product class of two growth classes
    oracle dims <file> --module M -n N      brute-force syzygy dimension sequence
    oracle dims --builtin xyz-local --module k -n N
    oracle crosscheck <file> --module M -n N

Polynomial coefficients are comma separated, constant term first, in
brackets: x^2-x-1 is "[-1,-1,1]". Without brackets a list that starts with a
minus sign reads as an option; put "--" before it: curvature check -- -1,-1,1.
Class literals are written b^n or b^n*n^L where b is an integer, a
bracketed coefficient list (largest real root is taken), or one of the known
12-digit decimals. Exit codes: 0 ok, 1 usage, 2 parse, 3 validation,
4 mathematical precondition or out of memory, 5 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import load_algebra, parse_algebra_file, read_text
from .complexity import (
    convolve,
    lower_bound_report,
    module_complexity_by_name,
    polyexp_class,
    realize_class,
    zero_class,
)
from .curvature import (
    check_condition_c,
    closure_combine,
    companion_polynomial,
    realize_companion,
)
from .errors import (
    AlgebraSyntaxError,
    InternalInconsistencyError,
    MathPreconditionError,
    ValidationError,
)
from .oracle import (
    agreed_dim_sequence,
    builtin_table,
    crosscheck,
    rep_of,
    table_rep,
)
from .polynomials import (
    IntPolynomial,
    largest_real_root,
    rational_algebraic,
)
from .spectra import adjacency_matrix, perron_root
from .syzygy import (
    build_syzygy_quiver,
    resolve_module,
    syzygy_quiver_from_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MATH = 4
EXIT_INTERNAL = 5

# Decimal base literals recognized on the command line, mapped to defining
# polynomials (ascending coefficients). Exactness is preserved by refusing
# any other decimal.
DECIMAL_BASES = {
    "1.000000000000": (-1, 1),
    "1.618033988750": (-1, -1, 1),
    "2.618033988750": (1, -3, 1),
}


class UsageError(Exception):
    pass


class InputParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _diag(code: str, message: str):
    sys.stderr.write(f"error[{code}]: {message}\n")


def _parse_coeffs(text: str) -> list[int]:
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    try:
        return [int(part.strip()) for part in s.split(",")]
    except ValueError:
        raise InputParseError(
            f"cannot parse {text!r} as a comma-separated integer list"
        ) from None


def _poly_display(p: IntPolynomial) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            x = "x" if i == 1 else f"x^{i}"
            term = x if mag == 1 else f"{mag}*{x}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _parse_class_literal(text: str):
    s = text.strip()
    if s == "0":
        return zero_class(0)
    if s.startswith("0:"):
        try:
            return zero_class(int(s[2:]))
        except ValueError:
            raise InputParseError(f"bad zero-class literal {s!r}") from None
    degree = 0
    if "*n^" in s:
        s, _, deg = s.rpartition("*n^")
        try:
            degree = int(deg)
        except ValueError:
            raise InputParseError(f"bad degree in class literal {text!r}") from None
    if not s.endswith("^n"):
        raise InputParseError(
            f"class literal {text!r} must look like b^n or b^n*n^L"
        )
    base_text = s[:-2].strip()
    if base_text.startswith("["):
        p = IntPolynomial(_parse_coeffs(base_text))
        root = largest_real_root(p)
        if root is None:
            raise InputParseError(
                f"polynomial {base_text} has no real root to use as a base"
            )
        base = root
    elif base_text in DECIMAL_BASES:
        base = largest_real_root(IntPolynomial(list(DECIMAL_BASES[base_text])))
    else:
        try:
            base = rational_algebraic(int(base_text))
        except ValueError:
            raise InputParseError(
                f"unknown base {base_text!r}: use an integer, a bracketed "
                "coefficient list, or a known 12-digit decimal"
            ) from None
    try:
        return polyexp_class(base, degree)
    except ValueError as e:
        raise InputParseError(f"bad class literal {text!r}: {e}") from None


# -- subcommand bodies ----------------------------------------------------------

def _cmd_validate(args) -> int:
    A = load_algebra(args.file)
    _emit({
        "algebra": A.name,
        "vertices": len(A.quiver.vertices),
        "arrows": len(A.quiver.arrows),
        "relations": len(A.relations),
        "dimension": A.dimension,
        "max_relation_length": A.max_relation_length,
    })
    return EXIT_OK


def _cmd_paths(args) -> int:
    A = load_algebra(args.file)
    _emit({
        "algebra": A.name,
        "dimension": A.dimension,
        "paths": [p.literal() for p in A.nonzero_paths],
    })
    return EXIT_OK


def _cmd_syzquiver(args) -> int:
    A = load_algebra(args.file)
    M = resolve_module(A, args.module)
    Q = build_syzygy_quiver(M, A)
    if args.dot:
        sys.stdout.write(Q.to_dot())
    else:
        _emit(Q.to_json())
    return EXIT_OK


def _cmd_complexity(args) -> int:
    A = load_algebra(args.file)
    report = module_complexity_by_name(A, args.module)
    _emit(report.to_json())
    return EXIT_OK


def _cmd_lower_bound(args) -> int:
    A = load_algebra(args.file)
    data = json.loads(read_text(args.partial))
    Q = syzygy_quiver_from_json(data, A)
    if not (0 <= args.vertex < Q.n_vertices):
        raise ValidationError(
            f"vertex {args.vertex} out of range for a quiver with "
            f"{Q.n_vertices} vertices"
        )
    _emit(lower_bound_report(Q, args.vertex).to_json())
    return EXIT_OK


def _cmd_curvature_check(args) -> int:
    p = IntPolynomial(_parse_coeffs(args.coeffs))
    verdict = check_condition_c(p, assume_irreducible=args.assume_irreducible)
    _emit(verdict.to_json())
    return EXIT_OK


def _cmd_curvature_combine(args) -> int:
    p = IntPolynomial(_parse_coeffs(args.first))
    if args.op == "root":
        try:
            ell = int(args.second)
        except ValueError:
            raise InputParseError(
                f"root index must be an integer, got {args.second!r}"
            ) from None
        if ell < 1:
            raise UsageError("root index must be >= 1")
        result = closure_combine(p, IntPolynomial([1]), "root", ell)
    else:
        q = IntPolynomial(_parse_coeffs(args.second))
        result = closure_combine(p, q, args.op)
    _emit({
        "op": args.op,
        "result": result.to_list(),
        "display": _poly_display(result),
    })
    return EXIT_OK


def _cmd_curvature_realize(args) -> int:
    counts = _parse_coeffs(args.counts)
    if any(c < 0 for c in counts):
        raise UsageError("back-arrow counts must be nonnegative")
    Q = realize_companion(counts)
    p = companion_polynomial(counts)
    rho = perron_root(adjacency_matrix(Q))
    _emit({
        "vertices": list(Q.vertices),
        "arrows": [
            {"name": a.name, "from": a.source, "to": a.target}
            for a in Q.arrows
        ],
        "char_poly": p.to_list(),
        "rho": rho.to_json(),
    })
    return EXIT_OK


def _cmd_realize_class(args) -> int:
    if args.ell < 0:
        raise UsageError("--ell must be >= 0")
    spec = parse_algebra_file(args.quiver)
    text, _names = realize_class(spec.quiver, args.ell)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_convolve(args) -> int:
    c1 = _parse_class_literal(args.first)
    c2 = _parse_class_literal(args.second)
    c = convolve(c1, c2)
    _emit({"class": c.to_json(), "label": c.label()})
    return EXIT_OK


def _cmd_oracle_dims(args) -> int:
    if args.builtin and args.file:
        raise UsageError("give either an algebra file or --builtin, not both")
    if not args.builtin and not args.file:
        raise UsageError("give an algebra file or --builtin <id>")
    if args.n < 0:
        raise UsageError("-n must be >= 0")
    if args.builtin:
        table = builtin_table(args.builtin)
        dims = agreed_dim_sequence(
            lambda p: table_rep(table, args.module, p), args.n)
        source = f"builtin:{args.builtin}"
    else:
        A = load_algebra(args.file)
        M = resolve_module(A, args.module)
        dims = agreed_dim_sequence(lambda p: rep_of(M, A, p), args.n)
        source = f"algebra:{A.name}"
    _emit({
        "source": source,
        "module": args.module,
        "n": args.n,
        "dims": dims,
    })
    return EXIT_OK


def _cmd_oracle_crosscheck(args) -> int:
    if args.n < 0:
        raise UsageError("-n must be >= 0")
    A = load_algebra(args.file)
    M = resolve_module(A, args.module)
    report = crosscheck(A, M, args.n)
    _emit(report.to_json())
    if not report.agree:
        _diag(
            "inconsistent",
            f"syzygy quiver and oracle dimensions disagree first at "
            f"n={report.first_mismatch}",
        )
        return EXIT_INTERNAL
    return EXIT_OK


# -- parser ----------------------------------------------------------------------

COEFFS_HELP = 'polynomial, constant term first: "[-1,-1,1]" is x^2-x-1'


def build_parser() -> _Parser:
    root = _Parser(prog="syzcx", description=__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an algebra file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("paths", help="list nonzero paths")
    p.add_argument("file")
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("syzquiver", help="build a syzygy quiver")
    p.add_argument("file")
    p.add_argument("--module", required=True)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", dest="json_fmt", action="store_true")
    p.set_defaults(func=_cmd_syzquiver)

    p = sub.add_parser("complexity", help="growth class of syzygy dimensions")
    p.add_argument("file")
    p.add_argument("--module", required=True)
    p.set_defaults(func=_cmd_complexity)

    p = sub.add_parser("lower-bound",
                       help="lower bound from a partial syzygy quiver")
    p.add_argument("file")
    p.add_argument("--partial", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=_cmd_lower_bound)

    p = sub.add_parser("curvature", help="realizable-base toolbox")
    csub = p.add_subparsers(dest="curvature_command", required=True)

    c = csub.add_parser("check", help="decide realizability of a base")
    c.add_argument("coeffs", help=COEFFS_HELP)
    c.add_argument("--assume-irreducible", action="store_true")
    c.set_defaults(func=_cmd_curvature_check)

    c = csub.add_parser("combine", help="closure under sum/product/root")
    c.add_argument("--op", required=True, choices=("sum", "product", "root"))
    c.add_argument("first", help=COEFFS_HELP)
    c.add_argument("second", help=f"the root index, or a second {COEFFS_HELP}")
    c.set_defaults(func=_cmd_curvature_combine)

    c = csub.add_parser("realize", help="companion quiver for a base")
    c.add_argument("counts", help="back-arrow counts a0..as")
    c.set_defaults(func=_cmd_curvature_realize)

    p = sub.add_parser("realize-class",
                       help="algebra whose simples realize rho^n * n^s")
    p.add_argument("--quiver", required=True,
                   help="algebra file; only its quiver is used")
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=_cmd_realize_class)

    p = sub.add_parser("convolve", help="product of two growth classes")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("oracle", help="brute-force dimension sequences")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    o = osub.add_parser("dims", help="dimension sequence of iterated syzygies")
    o.add_argument("file", nargs="?")
    o.add_argument("--builtin", help="builtin table id (xyz-local)")
    o.add_argument("--module", required=True)
    o.add_argument("-n", type=int, required=True)
    o.set_defaults(func=_cmd_oracle_dims)

    o = osub.add_parser("crosscheck",
                        help="oracle vs syzygy-quiver dimension sequences")
    o.add_argument("file")
    o.add_argument("--module", required=True)
    o.add_argument("-n", type=int, required=True)
    o.set_defaults(func=_cmd_oracle_crosscheck)

    return root


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        _diag("usage", str(e))
        return EXIT_USAGE
    except InputParseError as e:
        _diag("input", str(e))
        return EXIT_PARSE
    except json.JSONDecodeError as e:
        _diag("json", str(e))
        return EXIT_PARSE
    except AlgebraSyntaxError as e:
        _diag(e.code, str(e))
        return EXIT_PARSE
    except OSError as e:
        _diag("io", str(e))
        return EXIT_PARSE
    except ValidationError as e:
        _diag(e.code, str(e))
        return EXIT_VALIDATION
    except MathPreconditionError as e:
        _diag(e.code, str(e))
        return EXIT_MATH
    except MemoryError:
        _diag("out_of_memory", "out of memory")
        return EXIT_MATH
    except InternalInconsistencyError as e:
        _diag(e.code, str(e))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
