"""Expected answers for each workload's queries, and the comparison.

References come from reference.py (independent code) and, for `cli`, from
the read-only goldens in tests/golden. For `classify` they are also held
against the stored classes in expected/classify.json, which were computed
once at this benchmark's first commit and cross-validated then against the
float reference.
"""

from __future__ import annotations

import json
from decimal import Decimal
from pathlib import Path

import reference as R

STORED = Path(__file__).resolve().parent / "expected" / "classify.json"


def _stored_classes() -> dict:
    if not STORED.is_file():
        return {}
    return json.loads(STORED.read_text(encoding="utf-8"))


def prepare(workload: str, inputs: dict, root: Path) -> dict:
    """Reference per query id."""
    refs: dict = {}
    if workload == "classify":
        stored = _stored_classes()
        for q in inputs["queries"]:
            refs[q["id"]] = {
                "float": R.simples_class(q["algebra"], q["algebra"]["vertices"]),
                "stored": stored.get(str(q["draw"])),
            }
    elif workload == "realize":
        for c in inputs["companions"]:
            cp = R.companion_coeffs(c["counts"])
            refs[c["id"]] = {"char_poly": cp, "root": R.largest_real_root(cp)}
        box = inputs["box"]
        base = R.largest_real_root(R.companion_coeffs(box["counts"]))
        refs["box_build"] = {"modules": len(box["vmap"]) * (box["ell"] + 1)}
        for v in box["vmap"].values():
            for s in range(box["ell"] + 1):
                refs[f"box_S_{v}_{s}"] = {"kind": "polyexp", "base": base,
                                          "degree": s}
        for c in inputs["checks"]:
            refs[c["id"]] = {"truth": c["truth"],
                             "root": R.largest_real_root(c["coeffs"])}
        for c in inputs["combines"]:
            refs[c["id"]] = dict(c, bp=R.largest_real_root(c["pc"]),
                                 bq=R.largest_real_root(c["qc"]))
    elif workload == "oracle":
        for n in range(inputs["xyz_n"] + 1):
            refs[f"xyz_n{n}"] = R.LUCAS_ODD[n]
        for fam in inputs["algebras"]:
            alg = fam["algebra"]
            ref = R.MonomialRef(alg)
            refs[f"{fam['id']}_build"] = sum(len(ref.paths_from(v))
                                             for v in alg["vertices"])
            for s in fam["simples"]:
                refs[f"{fam['id']}_{s['module']}"] = R.simple_dims(
                    alg, s["vertex"], s["depth"])
    elif workload == "cli":
        for case in inputs["cases"]:
            golden = root / "tests" / "golden" / case["golden"]
            refs[case["id"]] = golden.read_text(encoding="utf-8")
    return refs


def _combine_ok(ref: dict, result: list) -> bool:
    if ref["op"] == "root":
        want = [0] * ((len(ref["pc"]) - 1) * ref["ell"] + 1)
        for i, c in enumerate(ref["pc"]):
            want[i * ref["ell"]] = c
        return result == want
    degree = (len(ref["pc"]) - 1) * (len(ref["qc"]) - 1)
    return (len(result) == degree + 1 and result[-1] == 1
            and R.vanishes_at(result, R.combined(ref["op"], ref["bp"], ref["bq"])))


def check(workload: str, refs: dict, rec: dict) -> tuple[bool, bool, str]:
    """(correct, decided, note) for one query record."""
    if "error" in rec:
        return False, False, rec["error"]
    qid, ans = rec["id"], rec["answer"]
    if qid.startswith("xyz_p"):  # one reference for every prime
        qid = "xyz_" + qid.rsplit("_", 1)[1]
    if qid not in refs:
        return False, False, "no reference for this query"
    ref = refs[qid]
    if workload == "classify":
        if not R.class_matches(ans, ref["float"], R.BASE_TOL):
            return False, True, f"float reference {ref['float']}, got {ans}"
        st = ref["stored"]
        if st is not None:
            st = dict(st, base=st.get("approx"))
            if not R.class_matches(ans, st, R.EXACT_TOL):
                return False, True, f"stored class {ref['stored']}, got {ans}"
        return True, True, ""
    if workload == "realize":
        if qid.startswith("companion_"):
            # The defining polynomial may be the characteristic polynomial
            # itself or any other integer polynomial of no larger degree with
            # the same root; both follow from the construction.
            poly = ans["poly"]
            ok = ((poly == ref["char_poly"] or R.vanishes_at(poly, ref["root"]))
                  and len(poly) <= len(ref["char_poly"])
                  and abs(Decimal(ans["approx"]) - ref["root"]) <= Decimal(R.EXACT_TOL))
            return ok, True, "" if ok else f"expected {ref}, got {ans}"
        if qid == "box_build":
            ok = len(ans["modules"]) == ref["modules"]
            return ok, True, "" if ok else f"{len(ans['modules'])} modules"
        if qid.startswith("box_"):
            ok = R.class_matches(ans, ref, R.EXACT_TOL)
            return ok, True, "" if ok else f"expected {ref}, got {ans}"
        if qid.startswith("check_"):
            if ans["status"] == "indeterminate":
                return True, False, "indeterminate"
            ok = ans["status"] == ref["truth"]
            if ok and ans["status"] == "realizable":
                ok = abs(Decimal(ans["b"]) - ref["root"]) <= Decimal(R.EXACT_TOL)
            return ok, True, "" if ok else f"expected {ref['truth']}, got {ans}"
        ok = _combine_ok(ref, ans["result"])
        return ok, True, "" if ok else f"result {ans['result']} fails the check"
    if workload == "oracle":
        if qid.endswith("_build"):
            ok = ans["dimension"] == ref
        elif qid.startswith("xyz_"):
            ok = ans["dim"] == ref
        else:
            ok = ans["agree"] and ans["oracle"] == ref and ans["quiver"] == ref
        return ok, True, "" if ok else f"expected {ref}, got {ans}"
    ok = ans["rc"] == 0 and ans["stdout"] == ref and ans["stderr"] == ""
    note = "" if ok else f"rc={ans['rc']} stderr={ans['stderr'][-200:]!r}"
    return ok, True, note
