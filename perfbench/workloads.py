"""The four workloads: seeded inputs, the public call each operation makes,
the warm-up that belongs to set-up, and the output checks.

A workload's ``ops`` list is fixed by the seed.  ``call`` runs one operation
through the entry point a user would call and returns its raw output (a
value, or the path of the file the CLI wrote).  ``check`` runs after the
timed phase and returns, for every record, one error list per operation the
record covers: a grid, wide or search record is one operation, a verify
command covers its five suites.  The checks recompute answers with
``oracles``, never with the package's kernels.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Optional

import oracles

SUITE_REPORTS = {
    "staircase": "staircase-extremality",
    "bounds": "weight-bounds",
    "structure": "equality-structure",
    "conjectures": "conjectures",
    "oracles": "enumerator-consistency",
}


@dataclass
class Record:
    op: Any
    threads: int
    latency_s: float
    output: Any = None
    error: Optional[str] = None
    families: int = 0                  # filled in by check


def sqrt_regime_n(r: int) -> int:
    """ceil(sqrt(r * 2**r)), the domain of the square-root regime pair."""
    s = r << r
    n = math.isqrt(s)
    return n if n * n == s else n + 1


class Grid:
    """Many small and mid-size constructions: a stratified seeded sample of
    the satisfiable (n, m) cells with n <= 12, m <= 4096, one
    ``sweep_constructions`` call per cell."""

    name = "grid"
    threaded = False

    def __init__(self, seed: int, size: int = 1000, n_max: int = 12, m_max: int = 4096,
                 deep: int = 16):
        rng = random.Random(seed)
        ranges = {n: (n - 1, min(1 << n, m_max)) for n in range(1, n_max + 1)}
        total = sum(hi - lo + 1 for lo, hi in ranges.values())
        self.ops = []
        for n, (lo, hi) in ranges.items():
            width = hi - lo + 1
            k = max(1, round(size * width / total))
            # One cell from each of k equal slices of the m range.
            for i in range(k):
                a = lo + width * i // k
                b = lo + width * (i + 1) // k - 1
                self.ops.append((n, rng.randint(a, max(a, b))))
        rng.shuffle(self.ops)
        small = sorted({op for op in self.ops if op[1] <= 1024})
        self.deep = set(rng.sample(small, min(deep, len(small))))

    @staticmethod
    def warm_up(ucf):
        ucf.sweep_constructions(8, pairs=[(4, 8)])

    def call(self, ucf, op, threads, path):
        n, m = op
        return [(r.n, r.m, r.l, r.w, r.lower, r.upper)
                for r in ucf.sweep_constructions(m, pairs=[(n, m)])]

    def check(self, ucf, records):
        deep_done = set()
        out = []
        for rec in records:
            if rec.error:
                out.append([[rec.error]])
                continue
            n, m = rec.op
            errors = check_sweep_rows(rec.output, n, m)
            if not errors and rec.op in self.deep and rec.op not in deep_done:
                deep_done.add(rec.op)
                family, _ = ucf.intermediate(n, m)
                errors = check_family(oracles.sets_of(family.masks), n, m, rec.output[0][3])
            rec.families = 1
            out.append([errors])
        return out


def check_sweep_rows(rows, n, m):
    if len(rows) != 1:
        return [f"sweep returned {len(rows)} rows for one cell"]
    rn, rm, rl, w, lower, upper = rows[0]
    if (rn, rm, rl) != (n, m, 1):
        return [f"row is for (n={rn}, m={rm}, l={rl}), asked (n={n}, m={m}, l=1)"]
    errors = oracles.weight_bound_errors(w, n, m)
    reimer = m * math.log2(m) / 2 if m >= 1 else 0.0
    if not oracles.close_enough(lower, max(reimer, math.comb(n, 2))):
        errors.append(f"lower bound {lower} disagrees with the closed form")
    if not oracles.close_enough(upper, reimer + n * (n + 1) / 2 + m):
        errors.append(f"upper bound {upper} disagrees with the closed form")
    return errors


def check_family(sets, n, m, w=None, closure_limit=1 << 11):
    """Size, range, distinctness, weight sandwich, separation, and closure
    when m is small enough for a pairwise scan.  Sets are lists of distinct
    elements."""
    errors = []
    masks = oracles.masks_from_sets(sets)
    if len(masks) != m:
        errors.append(f"family has {len(masks)} sets, wanted {m}")
    if len(set(masks)) != len(masks):
        errors.append("family repeats a set")
    if any(s and not 1 <= min(s) <= max(s) <= n for s in sets):
        errors.append(f"a set leaves the domain [{n}]")
    weight = sum(len(s) for s in sets)
    if w is not None and w != weight:
        errors.append(f"reported weight {w}, family weighs {weight}")
    errors += oracles.weight_bound_errors(weight, n, m)
    if not oracles.is_separating(sets, n):
        errors.append("family is not separating")
    if len(masks) <= closure_limit and not oracles.is_union_closed(masks):
        errors.append("family is not union-closed")
    return errors


class Wide:
    """Few big constructions through ``ucf construct``: one square-root
    regime cell per r in 10..15, the seed nudging n up to 2% above the
    pair's domain."""

    name = "wide"
    threaded = False

    def __init__(self, seed: int, rs=range(10, 16)):
        rng = random.Random(seed)
        self.ops = []
        for r in rs:
            n = sqrt_regime_n(r)
            self.ops.append((n + rng.randint(0, n // 50), 1 << r))
        rng.shuffle(self.ops)

    @staticmethod
    def warm_up(ucf):
        ucf.intermediate(16, 64)

    def call(self, ucf, op, threads, path):
        n, m = op
        code = ucf.cli.main(["construct", "--kind", "intermediate",
                             "--n", str(n), "--m", str(m), "-o", path])
        if code != 0:
            raise RuntimeError(f"ucf construct exited {code}")
        return path

    def check(self, ucf, records):
        verified: dict[tuple, str] = {}      # op -> digest of a checked output
        out = []
        for rec in records:
            if rec.error:
                out.append([[rec.error]])
                continue
            with open(rec.output, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            if verified.get(rec.op) == digest:
                errors = []
            else:
                errors = check_family_json(raw, *rec.op)
                if not errors:
                    verified.setdefault(rec.op, digest)
                    if verified[rec.op] != digest:
                        errors = ["output differs from an earlier valid output of the cell"]
            rec.families = 1
            out.append([errors])
        return out


def check_family_json(raw: bytes, n: int, m: int) -> list[str]:
    try:
        data = json.loads(raw)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(data, dict) or set(data) != {"n", "sets"} or data["n"] != n:
        return ["output is not a family on the requested domain"]
    sets = data["sets"]
    if any(s != sorted(set(s)) for s in sets):
        return ["a set is not an ascending list of distinct elements"]
    return check_family(sets, n, m)


class Search:
    """Exact minimum weight at n = 5 through ``ucf search``, each cell at
    --threads 1 and --threads 2; the seed picks l and the order."""

    name = "search"
    threaded = True         # calls pass --threads to the package

    def __init__(self, seed: int, ms=(6, 7, 8), n: int = 5):
        rng = random.Random(seed)
        self.n = n
        self.ops = [(m, rng.choice((1, 2))) for m in ms]
        rng.shuffle(self.ops)

    @staticmethod
    def warm_up(ucf):
        ucf.min_weight_search(5, 4)

    def call(self, ucf, op, threads, path):
        m, l = op
        code = ucf.cli.main(["search", "--n", str(self.n), "--m", str(m), "--l", str(l),
                             "--threads", str(threads), "-o", path])
        if code != 0:
            raise RuntimeError(f"ucf search exited {code}")
        return path

    def check(self, ucf, records):
        upper = {op: self._upper(ucf, *op) for op in self.ops}
        reference: dict[tuple, tuple] = {}   # op -> summary of a threads=1 outcome
        summaries = []
        for rec in records:
            if rec.error:
                summaries.append(([rec.error], None))
                continue
            with open(rec.output, encoding="utf-8") as fh:
                outcome = json.load(fh)
            errors = check_search_outcome(outcome, self.n, *rec.op, upper[rec.op])
            summary = None
            if not errors:
                rec.families = outcome["examined"]
                summary = search_summary(outcome)
                if rec.threads == 1:
                    reference.setdefault(rec.op, summary)
            summaries.append((errors, summary))
        out = []
        for rec, (errors, summary) in zip(records, summaries):
            want = reference.get(rec.op)
            if summary is not None and want is not None and summary != want:
                errors = [f"threads={rec.threads} outcome differs from the serial one"]
            elif summary is not None and want is None:
                errors = ["no serial outcome to compare with"]
            out.append([errors])
        return out

    def _upper(self, ucf, m, l):
        """l-fold weight of the package's construction, once the oracles
        confirm it is a separating union-closed family of size m."""
        masks = ucf.intermediate(self.n, m)[0].masks
        if check_family(oracles.sets_of(masks), self.n, m):
            return None
        return oracles.l_fold_weight(masks, l)


def check_search_outcome(outcome, n, m, l, upper) -> list[str]:
    if (outcome.get("n"), outcome.get("m"), outcome.get("l")) != (n, m, l):
        return ["outcome is for another cell"]
    if outcome.get("exhaustive") is not True:
        return ["search was not exhaustive"]
    value = outcome.get("min_value")
    if not isinstance(value, int):
        return [f"min_value {value!r} is not an integer"]
    errors = []
    floor = max(math.comb(n, l + 1), oracles.reimer_l(m, l))
    if value < floor - oracles.REL * floor:
        errors.append(f"min_value {value} below the floor {floor}")
    if upper is None:
        errors.append(f"intermediate({n}, {m}) is not a valid upper bound")
    elif value > upper:
        errors.append(f"min_value {value} above the construction's {upper}")
    if (n, m, l) == (5, 6, 1) and value != 11:
        errors.append(f"min_value {value} for (5, 6, l=1), known to be 11")
    witnesses = outcome.get("witnesses") or []
    if not witnesses:
        errors.append("no witness")
    keys = set()
    for wit in witnesses:
        masks = oracles.masks_from_sets(wit["sets"])
        if wit["n"] != n or len(masks) != m or len(set(masks)) != m:
            errors.append("witness has the wrong size or domain")
        elif not oracles.is_union_closed(masks) or not oracles.is_separating(wit["sets"], n):
            errors.append("witness is not a separating union-closed family")
        elif oracles.l_fold_weight(masks, l) != value:
            errors.append("witness weight differs from min_value")
        keys.add(oracles.canonical_masks(masks, n))
    if len(keys) != len(witnesses):
        errors.append("two witnesses are relabelings of each other")
    return errors


def search_summary(outcome) -> tuple:
    keys = frozenset(oracles.canonical_masks(oracles.masks_from_sets(w["sets"]), w["n"])
                     for w in outcome["witnesses"])
    return outcome["min_value"], outcome["examined"], keys


class Verify:
    """``ucf verify --suite all`` at default sizes, plus seeded relabelings of
    random union-closed families on 7 and 8 points checked for equal
    ``canonical_form``."""

    name = "verify"
    threaded = False

    # (n, random sets closed under union, size): sizes are fixed so that every
    # seed asks canonical_form for the same amount of work.
    def __init__(self, seed: int, canon=((7, 4, 15), (7, 4, 15), (7, 4, 15),
                                          (8, 4, 15), (8, 4, 15))):
        rng = random.Random(seed)
        self.ops = [("verify",)]
        for n, k, size in canon:
            while True:
                masks = sorted(oracles.union_closure(
                    rng.randrange(1, 1 << n) for _ in range(k)))
                if len(masks) == size:
                    break
            order = rng.sample(range(n), n)
            self.ops.append(("canonical", n, tuple(masks),
                             tuple(oracles.relabel(masks, order))))

    @staticmethod
    def warm_up(ucf):
        for n in range(1, 5):
            ucf.enumerate_union_closed(n)
        for n in range(1, 7):
            ucf.canonical_form(ucf.staircase(n))
        ucf.verify_enumerator_consistency(1)

    def call(self, ucf, op, threads, path):
        if op[0] == "verify":
            code = ucf.cli.main(["verify", "--suite", "all", "-o", path])
            if code != 0:
                raise RuntimeError(f"ucf verify exited {code}")
            return path
        _, n, masks, relabeled = op
        return (ucf.canonical_form(ucf.SetFamily(n, masks)),
                ucf.canonical_form(ucf.SetFamily(n, relabeled)))

    def check(self, ucf, records):
        counts = {n: ucf.enumerate_union_closed(n) for n in oracles.UC_COUNTS}
        out = []
        for rec in records:
            if rec.op[0] == "verify":
                if rec.error:
                    out.append([[rec.error]] * len(SUITE_REPORTS))
                    continue
                with open(rec.output, encoding="utf-8") as fh:
                    reports = json.load(fh)
                per_suite = check_suite_reports(reports, counts)
                if not any(per_suite):
                    rec.families = sum(r["families_checked"] for r in reports)
                out.append(per_suite)
            elif rec.error:
                out.append([[rec.error]])
            else:
                out.append([check_canonical_pair(rec.output, rec.op[1], len(rec.op[2]))])
        return out


def check_suite_reports(reports, counts) -> list[list[str]]:
    """One error list per suite, in SUITE_REPORTS order."""
    by_name = {r.get("suite"): r for r in reports} if isinstance(reports, list) else {}
    out = []
    for key, suite in SUITE_REPORTS.items():
        report = by_name.get(suite)
        if report is None:
            out.append([f"suite {suite} missing from the report"])
            continue
        errors = []
        if report.get("passed") is not True or report.get("violations"):
            errors.append(f"suite {suite} reports violations")
        n_max = report.get("n_max", 0)
        total = sum(c for n, c in oracles.UC_COUNTS.items() if n <= n_max)
        # Every family but the empty one has a member; all but {} and {{}}
        # have nonempty support.
        expected = {"bounds": total - n_max, "conjectures": total - 2 * n_max}.get(key)
        if expected is not None and report.get("families_checked") != expected:
            errors.append(f"suite {suite} checked {report.get('families_checked')} "
                          f"families, expected {expected}")
        if key == "oracles" and counts != oracles.UC_COUNTS:
            errors.append(f"enumeration counts {counts}, expected {oracles.UC_COUNTS}")
        out.append(errors)
    return out


def check_canonical_pair(pair, n, m) -> list[str]:
    original, relabeled = pair
    if original != relabeled:
        return ["canonical forms of a family and its relabeling differ"]
    if original[0] != n or len(original[1]) != m:
        return ["canonical form has the wrong domain or size"]
    return []


WORKLOADS = {cls.name: cls for cls in (Grid, Wide, Search, Verify)}
