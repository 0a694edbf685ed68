"""Independent correctness oracle for the capelli benchmark.

The eight table rows are written out here by hand, in plain ``Fraction``
arithmetic, and nothing is read from ``capelli.catalog``: a defect in the
catalog or in the b-function computation cannot leak into the expected
values.  Rows (3) and (6) are printed wrong in the source table; both the
printed rule and the corrected rule are kept, and the corrected one is the
true b.

The constant c in  Delta(f^(s+1)) = c * b(s) * f^s  is fixed by the
classical identities: 4 for the quadrics (Delta = sum of d_i^2 applied to
sum of x_i^2), 1 for the Cayley-type determinant and Pfaffian identities
and for the symplectic pairing.

Every check returns (attempted, failed, notes): one attempted check per
certified item, with a short note for each failure.
"""

from __future__ import annotations

from fractions import Fraction


def _half(i):
    return Fraction(i, 2)


# case id -> (printed offsets, corrected offsets or None, c); b(s) = prod (s + o)
TABLE = {
    1: (lambda n: [Fraction(1), _half(n)], None, Fraction(4)),
    2: (lambda n: [_half(i + 1) for i in range(1, n + 1)], None, Fraction(1)),
    3: (lambda n: [Fraction(2 * i - 1) for i in range(1, n + 1)],
        lambda n: [Fraction(2 * i - 1) for i in range(1, n // 2 + 1)], Fraction(1)),
    4: (lambda n: [Fraction(i) for i in range(1, n + 1)], None, Fraction(1)),
    5: (lambda n: [Fraction(1), Fraction(2 * n)], None, Fraction(1)),
    6: (lambda n: [Fraction(2), Fraction(4)], lambda n: [Fraction(1), Fraction(4)], Fraction(4)),
    7: (lambda n: [Fraction(1), Fraction(7, 2)], None, Fraction(4)),
    8: (lambda n: [Fraction(i) for i in range(1, 5)], None, Fraction(1)),
}

# the rows `capelli bs verify-all` certifies, in output order
MIN_PAIRS = [(1, 2), (2, 2), (3, 4), (4, 2), (4, 3), (5, 2), (6, 8), (7, 7), (8, 4)]
DEFAULT_PAIRS = MIN_PAIRS + [(1, 4), (2, 3), (3, 6), (5, 3)]


def true_offsets(case, n):
    printed, corrected, _ = TABLE[case]
    return (corrected or printed)(n)


def degree(case, n):
    return len(true_offsets(case, n))


def constant(case):
    return TABLE[case][2]


def poly_from_offsets(offsets):
    """Coefficients, low to high, of prod (s + o)."""
    coeffs = [Fraction(1)]
    for o in offsets:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a * o
            nxt[i + 1] += a
        coeffs = nxt
    return coeffs


def b_value(case, n, s):
    out = Fraction(1)
    for o in true_offsets(case, n):
        out *= s + o
    return out


def fmt(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _wire(values):
    return [fmt(v) for v in values]


def expected_certificate(case, n):
    _, corrected, c = TABLE[case]
    offsets = true_offsets(case, n)
    return {
        "case_id": case,
        "size": n,
        "b_monic": _wire(poly_from_offsets(offsets)),
        "c": fmt(c),
        "roots": _wire(sorted(-o for o in offsets)),
        "verdict": "match" if corrected is None else "mismatch-disputed-row",
    }


def check_certificates(rows, pairs):
    """Check `bs verify-all --json` rows; extra fields in a row are ignored."""
    notes = []
    if not isinstance(rows, list) or len(rows) != len(pairs):
        return len(pairs), len(pairs), ["no certificate list of the right length"]
    failed = 0
    for row, (case, n) in zip(rows, pairs):
        want = expected_certificate(case, n)
        bad = [k for k, v in want.items() if not isinstance(row, dict) or row.get(k) != v]
        if bad:
            failed += 1
            notes.append(f"case ({case}) n={n}: wrong {', '.join(bad)}")
    return len(pairs), failed, notes


def check_plain_diff(results, inputs):
    """Annihilation verdicts and gauged D edges c*b(k+lambda-1) per (case, size, lambda)."""
    lo, hi = inputs["window"]
    attempted = failed = 0
    notes = []
    by_pair = {(r["case"], r["size"]): r for r in results or []}
    for case, n in map(tuple, inputs["pairs"]):
        r = by_pair.get((case, n))
        attempted += 1 + len(inputs["lams"])
        if r is None:
            failed += 1 + len(inputs["lams"])
            notes.append(f"case ({case}) n={n}: no result")
            continue
        if not r["annihilation"]:
            failed += 1
            notes.append(f"case ({case}) n={n}: annihilation up to f^{inputs['m_max']} failed")
        d, c = degree(case, n), constant(case)
        witnesses = {w["lam"]: w for w in r["witness"]}
        for lam_text in inputs["lams"]:
            lam = Fraction(lam_text)
            want = [[fmt(d * (lam + k)), fmt(c * b_value(case, n, k + lam - 1))]
                    for k in range(lo + 1, hi + 1)]
            w = witnesses.get(lam_text)
            if w is None or not w["passed"] or w["edges"] != want:
                failed += 1
                notes.append(f"case ({case}) n={n} lambda={lam_text}: witness or D edges wrong")
    return attempted, failed, notes


def _breaks(case, n, lam, lo, hi):
    roots = [-o for o in true_offsets(case, n)]
    out = []
    for k in range(lo, hi + 1):
        mult = sum(1 for r in roots if r == k + lam - 1)
        if mult:
            out.append([k, mult])
    return out


def check_normal_forms(results, inputs):
    """delta*f = c*b(theta/d), confluence counts, parser round trips, ladders."""
    attempted = failed = 0
    notes = []
    by_pair = {(r["case"], r["size"]): r for r in results or []}
    words = sum(3 ** k for k in range(1, inputs["confluence_len"] + 1))
    for block in inputs["blocks"]:
        case, n = block["pair"]
        items = 3 + len(block["exprs"]) + len(block["ladders"])
        attempted += items
        r = by_pair.get((case, n))
        if r is None:
            failed += items
            notes.append(f"case ({case}) n={n}: no result")
            continue
        d, c = degree(case, n), constant(case)
        # B(theta) = c * b(theta/d) = c * prod (theta/d + o)
        want_b = [c * x / Fraction(d) ** i
                  for i, x in enumerate(poly_from_offsets(true_offsets(case, n)))]
        if r["delta_f"] != {"0": _wire(want_b)}:
            failed += 1
            notes.append(f"case ({case}) n={n}: delta*f does not reduce to c*b(theta/d)")
        ex = r["exhaustive"]
        if ex["words_checked"] != words or ex["discrepancies"]:
            failed += 1
            notes.append(f"case ({case}) n={n}: exhaustive confluence {ex}")
        fz = r["fuzz"]
        if fz["trials"] != inputs["fuzz_trials"] or fz["discrepancies"]:
            failed += 1
            notes.append(f"case ({case}) n={n}: confluence fuzz {fz}")
        bad = sum(1 for ok in r["exprs"] if not ok) + len(block["exprs"]) - len(r["exprs"])
        if bad:
            failed += bad
            notes.append(f"case ({case}) n={n}: {bad} expression round trips failed")
        bad = 0
        for (lam_text, lo, hi), got in zip(block["ladders"], r["ladders"]):
            if got["violations"] or got["breaks"] != _breaks(case, n, Fraction(lam_text), lo, hi):
                bad += 1
        bad += len(block["ladders"]) - len(r["ladders"])
        if bad:
            failed += bad
            notes.append(f"case ({case}) n={n}: {bad} ladders wrong")
    return attempted, failed, notes
