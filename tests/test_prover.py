import dataclasses
import io
import json
import os
import random
from itertools import product
from math import gcd

import pytest

from hopfatlas import prover
from dfs_search import _first_solution as dfs_first_solution
from json_trace import assert_same_text, serialize as dict_serialize
from hopfatlas.prover import (
    AXIOMS,
    Assumptions,
    CoradicalProfile,
    FREE_TRANSLATION,
    ProverError,
    RuleStep,
    TraceError,
    _Call,
    _first_solution,
    _reach,
    _solve,
    _variable_system,
    apply_base_pack,
    apply_extended_pack,
    enumerate_profiles,
    full_orbit,
    naive_assignment_oracle,
    prove,
    replay,
)
from hopfatlas.scalars import divisors

FLAGS = (full_orbit(2), FREE_TRANSLATION)
SEED = 0
TEST_SEED = int(os.environ.get("HOPFATLAS_TEST_SEED", "0"))


def blocks_of(profiles, g):
    return {p.blocks for p in profiles if p.g == g}


def test_enumerate_8p_divisible_groups_empty():
    for p in (3, 5, 7, 11):
        assert enumerate_profiles(8 * p, Assumptions(), g=4 * p) == []
        assert enumerate_profiles(8 * p, Assumptions(), g=8 * p) == []


def test_enumerate_24_g2_matches_bruteforce_oracle():
    got = blocks_of(enumerate_profiles(24, Assumptions(), g=2), 2)
    # oracle: independent enumeration of multisets with sum m*d^2 <= 21 and 2 | m*d^2
    oracle = set()

    def rec(d, acc, left):
        if acc:
            oracle.add(tuple(acc))
        for dd in range(d, 5):
            m = 1
            while m * dd * dd <= left:
                if (m * dd * dd) % 2 == 0:
                    rec_blocks = acc + [(dd, m)]
                    oracle.add(tuple(rec_blocks))
                    rec(dd + 1, rec_blocks, left - m * dd * dd)
                m += 1

    rec(2, [], 21)
    # filter oracle for the per-class divisibility (2 | m d^2 per class)
    oracle = {b for b in oracle if all((m * d * d) % 2 == 0 for d, m in b)}
    assert got == oracle
    assert ((2, 1),) in got and ((3, 2),) in got and ((4, 1),) in got


def test_enumerate_emits_strictly_increasing_blocks():
    # enumerate_profiles returns the depth-first order as it is; that order
    # must already be sorted and free of repeats
    for asm in (Assumptions(), Assumptions(nonsemisimple=False, nonpointed=False)):
        for n in range(4, 121):
            for g in divisors(n):
                blocks = [p.blocks for p in enumerate_profiles(n, asm, g)]
                assert all(a < b for a, b in zip(blocks, blocks[1:])), (n, g, asm)


def test_enumerate_hands_over_the_fields_the_constructor_computes():
    # c0 and no_skew are compare=False, so profile equality does not see them
    for asm in (Assumptions(), Assumptions(nonsemisimple=False, nonpointed=False)):
        for n in (*range(4, 101), 143, 200):
            for g in divisors(n):
                for p in enumerate_profiles(n, asm, g):
                    q = CoradicalProfile(n, g, p.blocks)
                    assert (p.c0, p.no_skew) == (q.c0, q.no_skew), (n, g, p.blocks, asm)


def test_enumerate_cosemisimple_pointed_excluded():
    assert enumerate_profiles(12, Assumptions(), g=12) == []


def test_enumerate_pointed_profile_control():
    with_blocks = enumerate_profiles(12, Assumptions(nonpointed=False), g=6)
    assert () in blocks_of(with_blocks, 6)
    without = enumerate_profiles(12, Assumptions(), g=6)
    assert () not in blocks_of(without, 6)


def test_base_pack_8p_g_eq_p():
    for p in (3, 5, 7, 11):
        profiles = enumerate_profiles(8 * p, Assumptions(), g=p)
        assert profiles
        for prof in profiles:
            eliminated, steps = apply_base_pack(prof, Assumptions())
            assert prof.no_skew and eliminated
            assert any(s.rule == "R-bound" for s in steps)


def test_base_pack_remark_bound_60():
    prof = CoradicalProfile(24, 8, ((2, 2),))
    eliminated, steps = apply_base_pack(prof, Assumptions())
    assert eliminated
    bound_step = [s for s in steps if s.rule == "R-bound"][0]
    assert "60" in bound_step.detail


def test_base_pack_2pq_g_eq_q():
    prof = CoradicalProfile(70, 7, ((2, 7),))
    eliminated, steps = apply_base_pack(prof, Assumptions())
    assert eliminated


def test_extended_70_g5_cases():
    # {(2,10)}: dies without any flags
    prof = CoradicalProfile(70, 5, ((2, 10),))
    eliminated, _, assignment = apply_extended_pack(prof, Assumptions(), ())
    assert eliminated and assignment is None
    # {(2,5)}: feasible without flags, dies with full-orbit(2)
    prof = CoradicalProfile(70, 5, ((2, 5),))
    eliminated, _, _ = apply_extended_pack(prof, Assumptions(), ())
    assert not eliminated
    eliminated, steps, _ = apply_extended_pack(prof, Assumptions(), (full_orbit(2),))
    assert eliminated
    assert any(s.rule == "E-full-orbit" for s in steps)


def test_extended_42_g3_unique_survivor():
    report = prove(42, pack="extended", flags=FLAGS)
    survivors = [pv for pv in report.verdict_for(3).profiles if not pv.eliminated]
    assert len(survivors) == 1
    assert survivors[0].profile.blocks == ((3, 1),)
    assert survivors[0].assignment == {"y_GG": 3, "y_GD_3": 9, "y_DD_3_3": 9}


def test_full_orbit_only_hits_single_pack_classes():
    # the multiplicity-6 class at n=78 is two translation packs; the orbit
    # hypothesis must not apply, leaving the profile feasible
    prof = CoradicalProfile(78, 6, ((2, 6),))
    eliminated, _, assignment = apply_extended_pack(prof, Assumptions(), FLAGS[:1] + FLAGS[1:])
    assert not eliminated
    assert assignment == {"y_GG": 12, "y_GD_2": 12, "y_DD_2_2": 12}
    # the single-pack class of the same g at n=66 dies
    prof66 = CoradicalProfile(66, 6, ((2, 3),))
    assert apply_extended_pack(prof66, Assumptions(), FLAGS)[0]


def test_flag_referencing_absent_class_has_no_effect():
    # standalone as inside prove(): a full-orbit flag on a block dimension the
    # profile lacks leaves the verdict, the steps and the assignment alone
    prof = CoradicalProfile(42, 3, ((3, 1),))
    for flags in ((), (FREE_TRANSLATION,)):
        want = apply_extended_pack(prof, Assumptions(), flags)
        assert apply_extended_pack(prof, Assumptions(), flags + (full_orbit(2),)) == want
        report = prove(42, pack="extended", flags=flags + (full_orbit(2),))
        pv, = [pv for pv in report.verdict_for(3).profiles if pv.profile == prof]
        assert (pv.eliminated, pv.steps[-len(want[1]):], pv.assignment) == want


def test_extended_pack_eliminates_a_profile_over_n():
    # c0 > n leaves a negative remainder: no branch admits it, with or
    # without a witness branch, and the search step names the remainder
    for prof, asm in ((CoradicalProfile(24, 2, ((4, 2),)), Assumptions()),
                      (CoradicalProfile(24, 3, ((3, 3),)), Assumptions()),
                      (CoradicalProfile(24, 3, ((3, 3),)), Assumptions(nonsemisimple=False))):
        eliminated, steps, assignment = apply_extended_pack(prof, asm)
        assert eliminated and assignment is None
        assert steps[-1].detail.endswith(f"remaining {24 - prof.c0}"), (prof, asm)


def test_prove_56_example():
    rep = prove(56, pack="base")
    assert {7, 8, 28, 56} <= set(rep.eliminated_gs())


def test_prove_66_vs_78_flag_sensitivity():
    assert 6 in prove(66, pack="extended", flags=FLAGS).eliminated_gs()
    assert 6 not in prove(78, pack="extended", flags=FLAGS).eliminated_gs()
    # without the orbit flag, g=6 at 66 survives: the flag is doing the work
    assert 6 not in prove(66, pack="extended", flags=(FREE_TRANSLATION,)).eliminated_gs()


def test_monotonicity_flags_shrink_survivors():
    for n in (42, 66, 70, 78):
        base = set(prove(n, pack="extended").surviving_gs())
        for flags in ((FREE_TRANSLATION,), (full_orbit(2),), FLAGS):
            assert set(prove(n, pack="extended", flags=flags).surviving_gs()) <= base


def test_axiom_only_when_enabled():
    rep = prove(70, pack="base")
    assert not rep.verdict_for(35).used_axiom
    rep = prove(70, pack="base", axioms=("pq-half-dim",))
    v = rep.verdict_for(35)
    assert v.used_axiom and v.eliminated
    assert v.axiom_steps[0].rule == "A-pq-half-dim"
    assert "axiom" in v.axiom_steps[0].citation


def test_axiom_condition_is_narrow():
    fn = AXIOMS["pq-half-dim"][1]
    assert fn(70, 35, Assumptions()) is not None
    assert fn(70, 35, Assumptions(nonsemisimple=False)) is None
    assert fn(70, 14, Assumptions()) is None
    assert fn(60, 30, Assumptions()) is None  # 30 = 2*3*5 is not pq


def test_trace_replay_bit_for_bit():
    for n, pack, flags, axioms in (
        (24, "base", (), ()),
        (70, "extended", FLAGS, ("pq-half-dim",)),
        (42, "extended", FLAGS, ()),
    ):
        text = prove(n, pack=pack, flags=flags, axioms=axioms).serialize()
        ok, _ = replay(text)
        assert ok


def _steps_and_lists(report):
    lists = [v.axiom_steps for v in report.verdicts]
    lists += [pv.steps for v in report.verdicts for pv in v.profiles]
    return [s for steps in lists for s in steps], lists


def test_report_holds_one_step_object_per_distinct_step():
    for n in (42, 66, 96, 120):
        report = prove(n, pack="extended", flags=FLAGS, axioms=("pq-half-dim",))
        steps, lists = _steps_and_lists(report)
        distinct = {(s.rule, s.detail, s.flags) for s in steps}
        assert len({id(s) for s in steps}) == len(distinct) < len(steps), n
        # every verdict owns its list, so a caller's edit stays in one profile
        assert len({id(steps) for steps in lists}) == len(lists)


def test_steps_are_frozen():
    step = prove(24, pack="extended").verdicts[0].profiles[0].steps[0]
    for name, value in (("rule", "E-search"), ("detail", "changed"), ("flags", (FREE_TRANSLATION,))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(step, name, value)


def test_step_carries_its_own_trace_object():
    # each step encodes its JSON object once, when it is made; the encoding
    # is no part of ==, hash or repr, and a replaced step encodes anew
    steps, _ = _steps_and_lists(prove(96, pack="extended", flags=FLAGS, axioms=("pq-half-dim",)))
    distinct = {id(s): s for s in steps}.values()
    assert len(distinct) > 100
    for s in distinct:
        assert json.loads(s.encoded) == {"citation": s.citation, "detail": s.detail,
                                         "flags": list(s.flags), "rule": s.rule}
    assert json.loads(dataclasses.replace(s, detail="x").encoded)["detail"] == "x"
    twin = RuleStep(s.rule, s.detail, s.flags)
    object.__setattr__(twin, "encoded", "")
    assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)


def test_prove_calls_the_extended_pack_through_the_module(monkeypatch):
    # bench/tracing.py counts verdicts by wrapping the module's name, so
    # prove() looks it up there once per computed extended verdict
    calls = []
    pack = prover.apply_extended_pack

    def counted(*args, **kwargs):
        calls.append(args[0])
        return pack(*args, **kwargs)

    monkeypatch.setattr(prover, "apply_extended_pack", counted)
    prove(200, pack="extended")
    assert len(calls) == 9729
    prove(200, pack="base")
    assert len(calls) == 9729


def test_extended_verdicts_with_one_memo_key_do_not_alias():
    # two FEASIBLE profiles of n = 40, g = 2 with the same c0 = 38 and block
    # dimensions (2, 4) share one extended verdict inside prove()
    report = prove(40, pack="extended")
    text = report.serialize()
    first, second = [pv for pv in report.verdict_for(2).profiles
                     if pv.profile.c0 == 38 and [d for d, _ in pv.profile.blocks] == [2, 4]]
    assert first.profile != second.profile and first.assignment == second.assignment
    steps, assignment = list(second.steps), dict(second.assignment)
    first.steps.append(first.steps[0])
    first.steps[0] = RuleStep("E-search", "changed")
    first.assignment["y_GG"] += 2
    first.assignment["changed"] = 0
    assert (second.steps, second.assignment) == (steps, assignment)
    assert_same_text(prove(40, pack="extended").serialize(), text)


def test_prove_matches_standalone_packs_on_every_profile():
    # the shared steps, the per-g base memo (keyed by c0 and d1) and the
    # per-g shape memo (keyed by the block dimensions and the flagged
    # multiplicities, each shape holding its verdicts by c0) against a fresh
    # apply_base_pack + apply_extended_pack call per profile, each building
    # its shape from the flags as given
    profiles = 0
    for asm in (Assumptions(), Assumptions(nonsemisimple=False, nonpointed=False)):
        for on in product((False, True), repeat=len(FLAGS)):
            flags = tuple(f for f, o in zip(FLAGS, on) if o)
            for n, pack in product(range(4, 61), ("base", "extended")):
                for v in prove(n, asm, pack, flags).verdicts:
                    got = [(pv.profile, pv.eliminated, pv.steps, pv.assignment) for pv in v.profiles]
                    want = []
                    for prof in enumerate_profiles(n, asm, v.g):
                        eliminated, steps = apply_base_pack(prof, asm)
                        if eliminated or pack == "base":
                            want.append((prof, eliminated, steps, None))
                            continue
                        ext_eliminated, ext_steps, assignment = apply_extended_pack(prof, asm, flags)
                        want.append((prof, ext_eliminated, steps + ext_steps, assignment))
                    if want:
                        assert got == want, (n, v.g, pack, flags, asm)
                        profiles += len(want)
    assert profiles > 20000


@pytest.mark.parametrize("read_size", [7, 1 << 16])
def test_replay_streamed_agrees_with_the_whole_text(monkeypatch, read_size):
    # the streamed comparison, refilled every 7 characters or reading the
    # trace in one piece, against the verdict on the whole parsed text
    monkeypatch.setattr(prover, "_READ_SIZE", read_size)
    text = prove(42, pack="extended", flags=FLAGS).serialize()
    middle = text.index("FEASIBLE", len(text) // 2)
    cases = [
        (text, True, 42), (text.rstrip("\n"), True, 42), (text + "\n\n", True, 42),
        (text[:middle] + "ELIMINATED" + text[middle + 8:], False, 42),
        (text.replace('"pack":"extended"', '"pack":"base"'), False, 42),
        (json.dumps(json.loads(text)), False, 42),  # the same object, not canonical
        (text[:-2] + ',"x":1}', False, 42),
        (text[:-2] + ',"n":24}', False, 24),  # the last "n" is the one JSON keeps
        (text[:-2] + ',"n":42.0}', TraceError, "n must be an integer"),
        (text + "]", TraceError, "not JSON: "), (text[:middle], TraceError, "not JSON: "),
    ]
    for trace, want, n in cases:
        for source in (trace, io.StringIO(trace)):
            if want is TraceError:
                with pytest.raises(TraceError, match=f"^{n}"):
                    replay(source)
            else:
                ok, report = replay(source)
                assert ok is want and report.n == n


def test_trace_writer_matches_dict_oracle():
    # the fragment writer against the dict tree it replaced, byte for byte
    for asm in (Assumptions(), Assumptions(nonsemisimple=False, nonpointed=False)):
        for pack in ("base", "extended"):
            for n in range(4, 61):
                report = prove(n, asm, pack)
                assert_same_text(report.serialize(), dict_serialize(report), str((n, pack, asm)))


def test_trace_writer_matches_dict_oracle_with_flags_and_axiom():
    # 70 and 66 are 2pq, where the axiom applies, under both flags; four more
    # dimensions and their flags drawn by HOPFATLAS_TEST_SEED
    rng = random.Random(TEST_SEED)
    cases = [(70, FLAGS), (66, FLAGS)] + [
        (n, tuple(f for f in FLAGS if rng.random() < 0.5)) for n in rng.sample(range(4, 91), 4)]
    for n, flags in cases:
        for asm in (Assumptions(), Assumptions(nonsemisimple=False, nonpointed=False)):
            report = prove(n, asm, "extended", flags, ("pq-half-dim",))
            assert_same_text(report.serialize(), dict_serialize(report), str((n, flags, asm)))


def test_trace_writer_escapes_like_json_dumps():
    # steps that differ only in flags, and details that need escaping
    report = prove(24, pack="extended", flags=FLAGS)
    steps = report.verdicts[0].profiles[0].steps
    steps += [RuleStep("E-search", 'a "quoted" \\ detail\n\tü\u2192\U0001d53d'),
              RuleStep("E-search", "same detail", ()),
              RuleStep("E-search", "same detail", (FREE_TRANSLATION,))]
    report.verdicts[0].axiom_steps.append(steps[-1])
    report.verdicts[0].profiles[0].assignment = {"y_GG": 0, 'y "odd"': 12}
    assert_same_text(report.serialize(), dict_serialize(report))


def test_eliminated_traces_have_citations():
    rep = prove(66, pack="extended", flags=FLAGS)
    for v in rep.verdicts:
        if not v.eliminated:
            continue
        if v.axiom_steps:
            continue
        for pv in v.profiles:
            assert pv.eliminated
            assert pv.steps, (v.g, pv.profile)
            for s in pv.steps:
                assert s.citation


def test_search_matches_naive_oracle_random():
    # both walk the admissible tuples in lexicographic order, so they must
    # return the same assignment, not merely agree on feasibility
    rng = random.Random(SEED)
    for _ in range(25):
        variables = [(f"v{i}", rng.choice((1, 2)), rng.randrange(1, 7), rng.randrange(0, 8))
                     for i in range(rng.randrange(1, 6))]
        total = rng.randrange(0, 61)
        fast = _first_solution(variables, total)
        assert fast == naive_assignment_oracle(variables, total), (variables, total)
        if fast is not None:
            assert sum(w * fast[nm] for nm, w, _, _ in variables) == total


def extended_systems():
    """(n, profile, flags, witness, variables) for every variable system the
    extended pack can meet for n <= 60: every witness branch, under both
    assumption sets and every subset of FLAGS."""
    for asm in (Assumptions(), Assumptions(nonpointed=False, noncopointed=False)):
        for n in range(4, 61):
            for g in divisors(n):
                for prof in enumerate_profiles(n, asm, g):
                    if apply_base_pack(prof, asm)[0]:
                        continue
                    exist = prof.no_skew and asm.nonsemisimple
                    branches = [d for d, _ in prof.blocks] if exist else [None]
                    for on, witness in product(product((False, True), repeat=2), branches):
                        flags = [f for f, o in zip(FLAGS, on) if o]
                        yield n, prof, flags, witness, _variable_system(prof, witness, _Call(flags))[0]


def test_search_matches_dfs_on_every_extended_system():
    # the reachability search returns the depth-first walk's assignment
    systems = 0
    for n, prof, flags, witness, variables in extended_systems():
        total = n - prof.c0
        want = dfs_first_solution(variables, total)
        assert _first_solution(variables, total) == want, (prof, flags, witness)
        systems += 1
    assert systems > 10000


def test_reach_up_to_n_solves_every_total():
    # a shape's search: one reach built up to n, which each verdict of the
    # shape solves at its total n - c0, solved here at every total in 0..n
    # against the reach built for that total, on every variable system (each
    # distinct (n, system) once); and against the depth-first walk at three
    # totals per system drawn by HOPFATLAS_TEST_SEED
    rng = random.Random(TEST_SEED)
    seen = set()
    for n, _, _, _, variables in extended_systems():
        if (n, variables) in seen:
            continue
        seen.add((n, variables))
        starts, reach = _reach(variables, n)
        got = [_solve(variables, starts, reach, t) for t in range(n + 1)]
        assert got == [_first_solution(variables, t) for t in range(n + 1)], (n, variables)
        for t in rng.sample(range(n + 1), 3):
            assert got[t] == dfs_first_solution(variables, t), (n, variables, t)
    assert len(seen) > 900


def test_parameter_validation():
    with pytest.raises(ProverError):
        prove(3)
    with pytest.raises(ProverError):
        prove(201)
    with pytest.raises(ProverError):
        prove(24, flags=("bogus",))
    with pytest.raises(ProverError):
        prove(24, axioms=("bogus",))
    with pytest.raises(ProverError):
        prove(24, pack="fancy")
