"""i.i.d. rows on type classes against the enumerated k^n-entry laws.

The enumerated row below is the oracle: the laws come from iid_joint, the
encoder from build_encoder and its moment from moment, over every tuple,
and the Renyi entropy and Sundaresan's penalty sum the tuples with fsum
(each tuple weighted 1).  The type path must give the same row bit for bit.
"""
import inspect
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from taskcodes import (AlphabetMismatchError, MomentReport, Partition, Pmf, block_experiment,
                       brute_force_optimum, build_encoder, divergence_limits, iid_joint,
                       kl_divergence, moment, renyi_divergence)
from taskcodes.cli import main
from taskcodes.coding import _description_count, _row, _type_encoder
from taskcodes.errors import RateTooSmallError
from taskcodes.mismatch import product_additivity_check, sundaresan_divergence
from taskcodes import coding, probability
from taskcodes.probability import IidTypes, TypeLaw, grouped_fsum
from conftest import random_pmf, rng

MAX_N = {2: 20, 3: 13, 4: 8}


def tuples_of(law):
    """An enumerated law whose sums run over its tuples with fsum."""
    return SimpleNamespace(masses=law.masses, log_masses=law.log_masses, size=law.size,
                           multiplicity=np.ones(law.size, dtype=np.int64))


def enumerated_row(p, n, rate, rho, design=None):
    law = iid_joint(p, n)
    design_law = None if design is None else iid_joint(design, n)
    m = _description_count(rate, n, p.size)
    part = build_encoder(law if design is None else design_law, rho, m)
    return _row(tuples_of(law), rho, m, None if design is None else tuples_of(design_law),
                n, float(rate), part.num_blocks, moment(law, part, rho))


def fields(report):
    """The report's fields, with nan made comparable."""
    return [("nan" if isinstance(v, float) and math.isnan(v) else v)
            for v in report]


# weights 0..6 give zero masses and letters of equal mass (types of equal
# mass inside one budget run); floats give generic masses
WEIGHTS = st.one_of(st.integers(0, 6), st.floats(0.05, 1.0))


@st.composite
def rows(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, MAX_N[k]))

    def law():
        w = draw(st.lists(WEIGHTS, min_size=k, max_size=k).filter(any))
        return Pmf([x / sum(w) for x in w])

    p = law()
    design = law() if draw(st.booleans()) else None
    # rates from half to one and a half times log2 k, to two decimals
    rate = Fraction(f"{math.log2(k) * draw(st.integers(50, 150)) / 100:.2f}")
    return p, n, rate, draw(st.sampled_from([0.5, 1.0, 2.0])), design


@settings(max_examples=60, deadline=None)
@given(rows())
@example((Pmf([0.9, 0.1]), 20, Fraction("0.9"), 1.0, Pmf([0.8, 0.2])))
@example((Pmf([0.5, 0.3, 0.2]), 13, Fraction("1.4"), 1.0, Pmf([0.6, 0.3, 0.1])))
@example((Pmf([0.5, 0.3, 0.2]), 11, Fraction("1.2"), 1.0, None))
@example((Pmf([0.4, 0.3, 0.3, 0.0]), 8, Fraction("1.9"), 2.0, Pmf([0.25] * 4)))
@example((Pmf([0.4, 0.3, 0.3, 0.0]), 8, Fraction("1.9"), 0.5, None))
# letter 0 of mass 0: the pads of the types with one or two letters point at it
@example((Pmf([0.0, 0.6, 0.4]), 9, Fraction("1.2"), 1.0, Pmf([0.0, 0.5, 0.5])))
# large alphabets of tied masses: every type sits in one budget run, cut
# between blocks, and position splits its 4,096 and 45,760 types
@example((Pmf([1 / 4096] * 4096), 1, Fraction("7.5"), 1.0, None))
@example((Pmf([1 / 64] * 64), 3, Fraction("5.6"), 1.0, None))
# a uniform design scored under a law of four masses: the design's one
# budget run holds types of many source masses, which the walk splits
@example((Pmf([0.25] * 4), 8, Fraction("2.3"), 0.5, Pmf([0.4, 0.3, 0.2, 0.1])))
# a stretch end on a run end makes a piece of no tuples: at rho = 1e300 it
# would add 0 copies of L^rho = inf, which grouped_fsum lets decide the sum
@example((Pmf([1.0, 0.0]), 12, Fraction("0.61"), 1e300, None))
# and where a run of law mass 0 ends a stretch, such a piece starts the next run
@example((Pmf([0.0, 1.0, 0.0, 0.0]), 1, Fraction("2.76"), 1e300,
          Pmf([2 / 11, 0.0, 2 / 11, 7 / 11])))
# one run of one mass meets two stretches: 250 tuples in blocks of 10, then 6
@example((Pmf([0.25] * 4), 4, Fraction("1.5"), 0.5, None))
# a walked design run at rho = 1e300: its pieces leave out types, whose
# L^rho = inf, yet the row's moment is 1
@example((Pmf([0.0, 1.0]), 6, Fraction("0.76"), 1e300, Pmf([0.625, 0.375])))
def test_type_row_is_the_enumerated_row(row):
    p, n, rate, rho, design = row
    try:
        want = enumerated_row(p, n, rate, rho, design)
    except RateTooSmallError:
        with pytest.raises(RateTooSmallError):
            block_experiment(p, n, rate, rho, design)
        return
    assert fields(block_experiment(p, n, rate, rho, design)) == fields(want)


@pytest.mark.parametrize("k,n", [(0, 3), (2, 0)])
def test_types_need_letters_and_a_block_length(k, n):
    with pytest.raises(ValueError, match="nonempty alphabet and a positive block length"):
        IidTypes(k, n)


def test_type_masses_need_the_letter_alphabet():
    with pytest.raises(AlphabetMismatchError):
        IidTypes(3, 2).log_masses(Pmf([0.5, 0.5]))


@pytest.mark.parametrize("k,n", [(1, 4), (2, 1), (2, 6), (3, 5), (4, 4), (6, 3)])
def test_types_count_every_tuple_once(k, n):
    types = IidTypes(k, n)
    assert len(types) == math.comb(n + k - 1, k - 1)
    assert int(types.multiplicity.sum()) == k ** n
    seen = {tuple((a, c) for a, c in zip(letters, counts) if c)
            for letters, counts in zip(types.letters.tolist(), types.counts.tolist())}
    assert len(seen) == len(types)
    assert types.letters.shape == types.counts.shape == (len(types), min(k, n))


@pytest.mark.parametrize("k,n", [(1, 4), (2, 1), (2, 6), (3, 5), (4, 4), (6, 3), (5, 2), (9, 7)])
def test_type_rows_hold_their_pairs_in_letter_order_then_pads(k, n):
    types = IidTypes(k, n)
    for letters, counts in zip(types.letters.tolist(), types.counts.tolist()):
        d = np.count_nonzero(counts)
        assert all(counts[:d]) and not any(counts[d:])
        assert letters[:d] == sorted(set(letters[:d]))
        assert sum(counts) == n


@pytest.mark.parametrize("k", range(1, 7))
def test_type_rows_come_in_order_of_their_pairs(k):
    for n in range(1, 9):
        pairs = np.count_nonzero(IidTypes(k, n).counts, axis=1)
        assert (np.diff(pairs) >= 0).all()


@pytest.mark.parametrize("masses", [[0.0, 0.5, 0.5], [0.0, 0.6, 0.0, 0.4], [0.0, 0.1, 0.2, 0.3, 0.4],
                                    [0.0, 0.3, 0.0, 0.2, 0.1, 0.4]])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_type_masses_read_no_pad(masses, n):
    # letter 0 has mass 0, so a pad's 0 * log2 p_0 would be nan
    p = Pmf(masses)
    types = IidTypes(p.size, n)
    want = []
    for t in range(len(types)):
        log_mass = 0.0
        for a, c in enumerate(count_vector(types, t, p.size)):
            if c:
                log_mass += float(c) * float(p.log_masses[a])
        want.append(log_mass)
    assert types.log_masses(p).tolist() == want


def test_multiplicities_past_int64_are_exact():
    types = IidTypes(2, 70)
    assert types.multiplicity.dtype == object
    assert sum(types.multiplicity.tolist()) == 2 ** 70
    assert max(types.multiplicity.tolist()) == math.comb(70, 35)


def count_vector(types, t, k):
    return tuple(np.bincount(np.repeat(types.letters[t], types.counts[t]), minlength=k).tolist())


@pytest.mark.parametrize("k,n", [(1, 4), (2, 1), (2, 9), (3, 6), (4, 5), (5, 3), (6, 2)])
def test_each_multiplicity_counts_the_tuples_of_its_type(k, n):
    tally = Counter(tuple(x.count(a) for a in range(k))
                    for x in itertools.product(range(k), repeat=n))
    types = IidTypes(k, n)
    assert {count_vector(types, t, k): int(types.multiplicity[t])
            for t in range(len(types))} == tally


@pytest.mark.parametrize("k,n", [(2, 62), (3, 31)])
def test_multiplicities_are_int64_up_to_the_edge_and_python_ints_past_it(k, n):
    assert IidTypes(k, n).multiplicity.dtype == np.int64
    past = IidTypes(k, n + 1).multiplicity
    assert past.dtype == object and type(past[0]) is int


@pytest.mark.parametrize("seed", range(52))
def test_rank_walk_is_a_sort_by_index(seed):
    # the run's tuples (as their types), sorted by index, cut after s:
    # counts per type.  From seed 40 on the run holds one or two types, so
    # the walk ends early, also where it breaks at the first letter
    r = rng(131, seed)
    k = r.randint(1 if seed < 40 else 2, 5)
    n = r.randint(1, 5 if k == 5 else 6)
    types = IidTypes(k, n)
    size = r.randint(1, len(types)) if seed < 40 else seed % 2 + 1
    members = sorted(r.sample(range(len(types)), size))
    by_counts = {count_vector(types, t, k): t for t in members}
    run = [by_counts[counts] for x in itertools.product(range(k), repeat=n)
           if (counts := tuple(np.bincount(x, minlength=k).tolist())) in by_counts]
    want = dict.fromkeys(members, 0)
    for s in range(len(run) + 1):  # every cut, the exact fits of a letter included
        got = types.first_counts(np.array(members), s)
        assert got.tolist() == [want[t] for t in members]
        if s < len(run):
            want[run[s]] += 1


def test_rank_walk_memory_follows_the_pairs_not_k():
    # 4096 one-letter types, the run cut past its middle: a k x T table of
    # letter counts would hold 4096^2 slots (134 MB)
    types = IidTypes(4096, 1)
    tracemalloc.start()
    try:
        got = types.first_counts(np.arange(4096), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [1] * 3000 + [0] * 1096
    assert peak < 2 ** 22


def test_rank_walk_past_int64():
    # the first 2^69 + 12345 tuples of 70 bits: every tuple 0y (C(69, j)
    # of them with j ones), then 1y for the 69-bit numbers y < 12345
    types = IidTypes(2, 70)
    got = types.first_counts(np.arange(len(types)), 2 ** 69 + 12345)
    for t, taken in enumerate(got.tolist()):
        ones = count_vector(types, t, 2)[1]
        tail = sum(1 for y in range(12345) if y.bit_count() + 1 == ones)
        assert taken == math.comb(69, ones) + tail


def walk_calls(p, n, rate, rho, design=None):
    """The (multiplicities of the members, s, their masses under p) of each
    rank walk that block_experiment takes on the row."""
    calls, walk = [], IidTypes.first_counts

    def spy(types, members, s):
        masses = TypeLaw(p, types).masses[members].tolist()
        calls.append((types.multiplicity[members].tolist(), s, masses))
        return walk(types, members, s)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IidTypes, "first_counts", spy)
        try:
            block_experiment(p, n, rate, rho, design)
        except RateTooSmallError:
            pass
    return calls


@settings(max_examples=60, deadline=None)
@given(rows())
@example((Pmf([0.5, 0.3, 0.2]), 13, Fraction("1.4"), 1.0, Pmf([0.6, 0.3, 0.1])))
@example((Pmf([1 / 64] * 64), 3, Fraction("5.6"), 1.0, None))
def test_the_walk_runs_only_where_types_interleave(row):
    # a run's end and a run of one mass are split by position: the walk gets
    # types of two or more masses and a cut strictly inside their tuples
    for mults, s, masses in walk_calls(*row):
        assert len(set(masses)) >= 2 and 0 < s < sum(mults)


def test_a_run_of_one_mass_is_one_piece_per_stretch():
    # 45,760 types of one mass in one budget run: the moment sums one term
    # per stretch of equal blocks, not one per type
    seen, blocks, moment_sum = {}, coding.greedy_blocks, coding._moment_sum

    def spy_blocks(*args):
        got = blocks(*args)
        seen["stretches"] = len(got)
        return got

    def spy_sum(masses, sizes, rho, counts=None):
        seen["terms"] = masses.size
        return moment_sum(masses, sizes, rho, counts)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coding, "greedy_blocks", spy_blocks)
        patch.setattr(coding, "_moment_sum", spy_sum)
        block_experiment(Pmf([1 / 64] * 64), 3, "5.6", 1.0)
    assert seen["terms"] <= seen["stretches"]


def test_benchmark_rows_walk_only_inside_runs_of_several_types():
    ternary, design = Pmf([0.5, 0.3, 0.2]), Pmf([0.6, 0.3, 0.1])
    assert walk_calls(Pmf([0.9, 0.1]), 20, "0.9", 1.0) == []  # sweep_iid
    assert len(walk_calls(ternary, 13, "1.4", 1.0, design)) == 7  # sweep_mismatch


@pytest.mark.parametrize("p,rate,n,row", [
    ((0.5, 0.3, 0.2), 1.6, 160,
     "160,1.6,1,115792089237316195423570985008687907853269984665640564039457584007913129639936,"
     "7292650792727469122860266592261331540640883862593859373362419685159443134562,"
     "1.0000635862,0.000702885576959,1.00281154231,2.89480223093e+76,0.0125"),
    ((0.4, 0.3, 0.2, 0.1), 1.9, 60,
     "60,1.9,1,20769187434139310514121985316880384,9611795134845910061464493744757808,"
     "4.74589797229,2.06980244528,9.27920978114,5.19229685853e+33,0.0333333333333"),
    ((1 / 2048,) * 2048, 10.5, 2,
     "2,10.5,1,2097152,838861,4.99999904633,2,9.00009155378,524282,1.00000825521"),
    ((0.4, 0.2, 0.2, 0.2), 1.9, 40,
     "40,1.9,1,75557863725914323419136,36137641217614746453974,11.8448489918,5.638809433,"
     "23.555237732,1.88894659315e+22,0.05"),
    (tuple((i + 1) / 131328 for i in range(512)), 10.5, 2,
     "2,10.5,1,2097152,252517,1.0016559503,0.0989479305117,1.39579549665,524283,1.00000687934"),
], ids=["ternary-n160", "four-letters-n60", "uniform-k2048-n2", "tied-n40",
        "ramp-k512-n2"])
def test_deep_rows_keep_their_bytes(p, rate, n, row):
    # rows the enumerated oracle above does not reach: two whose cut runs
    # hold up to 71 and 549 types, the largest type table, 2,098,176 rows of
    # one or two letters, a row with no run of one mass, whose every piece
    # comes from the walk, with counts past int64, and a row of 70,801
    # distinct masses, one budget each
    assert block_experiment(Pmf(p), n, rate, 1.0, cap=10 ** 200).csv_row() == row


def canonical_masses(p, n):
    """iid_joint's masses summed in Python: for each tuple, in index order,
    the sum over the letters present in x, in increasing letter order, of
    n_a(x) * log2 p_a; then one correctly rounded total for every tuple."""
    logs = []
    for letters in itertools.product(range(p.size), repeat=n):
        counts = np.bincount(letters, minlength=p.size)
        log_mass = 0.0
        for a in range(p.size):
            if counts[a]:
                log_mass += float(counts[a]) * float(p.log_masses[a])
        logs.append(log_mass)
    raw = np.exp2(logs)
    return (raw / math.fsum(raw.tolist())).tolist()


@pytest.mark.parametrize("masses,n", [([0.9, 0.1], 9), ([0.5, 0.3, 0.2], 6),
                                      ([0.4, 0.0, 0.35, 0.25], 4), ([1.0], 3),
                                      ([0.0, 0.7, 0.3], 5)])
def test_iid_joint_gives_each_tuple_its_canonical_type_mass(masses, n):
    p = Pmf(masses)
    law = iid_joint(p, n)
    types = IidTypes(p.size, n)
    typed = TypeLaw(p, types)
    by_counts = {count_vector(types, t, p.size): t for t in range(len(types))}
    if p.size > 1:
        for x, letters in enumerate(itertools.product(range(p.size), repeat=n)):
            counts = tuple(np.bincount(letters, minlength=p.size).tolist())
            assert law.masses[x] == typed.masses[by_counts[counts]]
        assert law.masses.tolist() == canonical_masses(p, n)


@pytest.mark.parametrize("masses,n", [([0.5, 0.3, 0.2], 6), ([0.4, 0.0, 0.35, 0.25], 4),
                                      ([0.9, 0.1], 9)])
def test_iid_joint_in_blocks_is_the_law_in_one(monkeypatch, masses, n):
    # a block of k^r tuples needs k^r * n <= _CHUNK: at 2n each block holds
    # the k tuples of one prefix of n - 1 letters
    p = Pmf(masses)
    whole = iid_joint(p, n)
    monkeypatch.setattr(probability, "_CHUNK", 2 * n)
    assert iid_joint(p, n).masses.tolist() == whole.masses.tolist() == canonical_masses(p, n)


@pytest.mark.parametrize("divergence", [kl_divergence,
                                        lambda p, q: sundaresan_divergence(p, q, 2.0),
                                        lambda p, q: renyi_divergence(p, q, 0.5)],
                         ids=["kl", "sundaresan", "renyi"])
@pytest.mark.parametrize("p,q,sizes", [
    (TypeLaw(Pmf([0.9, 0.1]), IidTypes(2, 2)), Pmf([0.5, 0.3, 0.2]), "4 vs 3"),
    (TypeLaw(Pmf([0.5, 0.5]), IidTypes(2, 3)), TypeLaw(Pmf([0.1, 0.2, 0.3, 0.4]), IidTypes(4, 1)),
     "8 vs 4"),
], ids=["3-types-against-3-letters", "4-types-on-8-and-4-tuples"])
def test_divergences_refuse_laws_whose_tuples_differ_in_number(divergence, p, q, sizes):
    # the same number of symbols, but each side's symbols stand for a
    # different number of tuples
    with pytest.raises(AlphabetMismatchError, match=f"alphabet sizes differ: {sizes}"):
        divergence(p, q)


# the edges between grouped_fsum's two paths: the float products take every
# nonzero |value| in [2^-969, 2^995] with every count below 2^26
TINY, HUGE = 2.0 ** -969, 2.0 ** 995
BELOW_TINY, ABOVE_HUGE = math.nextafter(TINY, 0.0), math.nextafter(HUGE, math.inf)


@settings(deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(-1e290, 1e290), st.floats(0, 1e-300), st.floats(-1e-290, 1e-300)),
    st.one_of(st.integers(0, 9), st.integers(0, 10 ** 12))), min_size=1, max_size=12))
@example([(TINY, 3), (-1.75 * TINY, 5), (1.1 * 2.0 ** -960, 7)])
@example([(BELOW_TINY, 3), (-1.75 * TINY, 5), (1.1 * 2.0 ** -960, 7)])
@example([(HUGE, 3), (-1.5 * 2.0 ** 990, 5), (0.1, 7)])
@example([(ABOVE_HUGE, 3), (-1.5 * 2.0 ** 990, 5), (0.1, 7)])
@example([(0.1, 2 ** 26 - 1), (-0.3, 3), (1e-17, 5)])
@example([(0.1, 2 ** 26), (-0.3, 3), (1e-17, 5)])
@example([(0.1, 12345), (0.7, 3), (-1e-20, 2 ** 25)])  # its object counts take float products
def test_grouped_fsum_is_fsum_over_the_copies(pairs):
    values = np.array([v for v, _ in pairs])
    counts = np.array([c for _, c in pairs])
    # fsum of c copies of v: fsum is exact on partial sums, so the copies
    # can be added as exact products c * v held as Fractions
    want = float(sum((Fraction(v) * c for v, c in pairs), Fraction(0)))
    got = grouped_fsum(values, counts)
    assert got == want
    assert grouped_fsum(values, counts.astype(object)) == want
    if counts.sum() < 100:
        assert got == math.fsum(np.repeat(values, counts).tolist())


@pytest.mark.parametrize("values,counts,exact", [
    ([TINY, 1.0], [3, 5], False), ([BELOW_TINY, 1.0], [3, 5], True),
    ([HUGE, -1.0], [3, 5], False), ([ABOVE_HUGE, -1.0], [3, 5], True),
    ([0.1, 0.3], [2 ** 26 - 1, 3], False), ([0.1, 0.3], [2 ** 26, 3], True)])
def test_grouped_fsum_path_follows_the_values_not_the_dtype(monkeypatch, values, counts, exact):
    exact_calls = []
    real = probability._exact
    monkeypatch.setattr(probability, "_exact", lambda v: exact_calls.append(v) or real(v))
    for dtype in (np.int64, object):
        grouped_fsum(np.array(values), np.array(counts, dtype=dtype))
    assert len(exact_calls) == (2 if exact else 0)


def test_an_iid_row_never_enumerates(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an n-tuple law was enumerated")
    for module in ("taskcodes.probability", "taskcodes.coding", "taskcodes.mismatch"):
        monkeypatch.setattr(f"{module}.iid_joint", refuse, raising=False)
    bern, skew = Pmf([0.9, 0.1]), Pmf([0.8, 0.2])
    for design in (None, skew):
        rep = block_experiment(bern, 20, "0.9", 1.0, design)
        assert rep.lower <= rep.moment <= rep.upper
    assert product_additivity_check(bern, skew, 0.5, 20)
    (tmp_path / "bern.pmf").write_text("0.9\n0.1\n")
    (tmp_path / "skew.pmf").write_text("0.8\n0.2\n")
    for q in ([], ["--q", str(tmp_path / "skew.pmf")]):
        assert main(["sweep", "--pmf", str(tmp_path / "bern.pmf"), *q, "--rate", "0.9",
                     "--rho", "1", "--n", "18..20"]) == 0
    assert capsys.readouterr().out.count("\n") == 8
    # 2^40 tuples: past any enumeration, but only 41 types
    rep = block_experiment(bern, 40, "0.9", 1.0, cap=1 << 41)
    assert rep.lower <= rep.moment <= rep.upper
    assert rep.used_count <= rep.description_count


@pytest.mark.parametrize("p,q,n,rate", [
    ([0.9, 0.1], [0.8, 0.2], 300, "0.9"),
    ([0.5, 0.3, 0.2], [0.6, 0.3, 0.1], 60, "1.4"),
    ([1 / 3] * 3, None, 80, "1.7"),
])
def test_rows_past_int64_counts(p, q, n, rate):
    # past the default cap, tuple counts and multiplicities are Python ints;
    # runs of one mass and runs split by the rank walk both occur
    rep = block_experiment(Pmf(p), n, rate, 1.0, None if q is None else Pmf(q), cap=1 << 1100)
    assert rep.lower <= rep.moment <= rep.upper
    assert rep.used_count <= rep.description_count


@pytest.mark.parametrize("p,q,n,rate", [
    ([0.9, 0.1], None, 16, "0.9"),
    ([0.5, 0.3, 0.2], [0.6, 0.3, 0.1], 9, "1.4"),
    ([0.4, 0.3, 0.3, 0.0], [0.25] * 4, 6, "1.9"),
    ([0.5, 0.25, 0.25], None, 10, "1.2"),
])
def test_python_int_counts_give_the_int64_row(p, q, n, rate):
    # the Python-int path of rows past int64, run where int64 also works
    types = IidTypes(len(p), n)
    object.__setattr__(types, "multiplicity", types.multiplicity.astype(object))
    law = TypeLaw(Pmf(p), types)
    design = None if q is None else TypeLaw(Pmf(q), types)
    m = _description_count(Fraction(rate), n, len(p))
    used, value = _type_encoder(law, law if q is None else design, 1.0, m)
    row = _row(law, 1.0, m, design, n, float(Fraction(rate)), used, value)
    assert fields(row) == fields(block_experiment(Pmf(p), n, rate, 1.0,
                                                  None if q is None else Pmf(q)))


def test_type_divergence_is_the_enumerated_one():
    p, q = Pmf([0.5, 0.3, 0.2]), Pmf([0.2, 0.2, 0.6])
    types = IidTypes(3, 7)
    for alpha in (0.25, 0.5, 2.0):
        assert (sundaresan_divergence(TypeLaw(p, types), TypeLaw(q, types), alpha)
                == sundaresan_divergence(tuples_of(iid_joint(p, 7)),
                                         tuples_of(iid_joint(q, 7)), alpha))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_renyi_and_kl_divergences_weight_each_type_by_its_multiplicity(k):
    # a zero letter in p, then in q, reaches the support branches
    for zeros_p, zeros_q in ((0, 0), (1, 0), (0, 1)):
        r = rng(k, 10 * zeros_p + zeros_q)
        p, q = random_pmf(r, k, zeros_p), random_pmf(r, k, zeros_q)
        for n in range(1, 9):
            types = IidTypes(k, n)
            laws = TypeLaw(p, types), TypeLaw(q, types)
            joints = iid_joint(p, n), iid_joint(q, n)
            for alpha in (0.25, 0.5, 2.0):
                assert (renyi_divergence(*laws, alpha)
                        == pytest.approx(renyi_divergence(*joints, alpha), rel=1e-12))
            assert kl_divergence(*laws) == pytest.approx(kl_divergence(*joints), rel=1e-12)


def test_type_law_is_a_pmf():
    law = TypeLaw(Pmf([0.5, 0.5]), IidTypes(2, 3))
    assert isinstance(law, Pmf)
    assert repr(law) == "TypeLaw([0.125, 0.125, 0.125, 0.125])"


def test_type_law_is_a_pmf_plus_data():
    # every other member is the Pmf's; the slots hold what the law is built with
    members = vars(TypeLaw).items()
    assert [name for name, v in members if inspect.isfunction(v)
            or isinstance(v, (property, classmethod, staticmethod))] == ["__init__"]
    assert {name for name, v in members if inspect.ismemberdescriptor(v)} == {
        "types", "multiplicity", "size"}
    types = IidTypes(2, 3)
    law = TypeLaw(Pmf([0.9, 0.1]), types)
    assert (law.types, law.multiplicity, law.size) == (types, types.multiplicity, 8)
    assert isinstance(vars(IidTypes)["size"], property)  # k^n only when asked for
    with pytest.raises(TypeError, match="^a TypeLaw has no support over its tuples; use iid_joint$"):
        law.support


def test_divergence_limits_refuse_a_type_law():
    # counting types, not tuples, would give order0 = log2(6/3) where log2(9/4) is right
    p, q = Pmf([0.5, 0.5, 0.0]), Pmf([1 / 3] * 3)
    types = IidTypes(3, 2)
    with pytest.raises(TypeError, match="no support over its tuples"):
        divergence_limits(TypeLaw(p, types), TypeLaw(q, types))
    joint = divergence_limits(iid_joint(p, 2), iid_joint(q, 2))
    assert joint.order0 == pytest.approx(math.log2(9 / 4), abs=1e-12)


def test_encoder_refuses_a_type_law():
    # its blocks would hold the 4 types of a law whose size counts 8 tuples
    with pytest.raises(TypeError, match="no encoder over its tuples; use iid_joint"):
        build_encoder(TypeLaw(Pmf([0.5, 0.5]), IidTypes(2, 3)), 1.0, 6)


def test_moment_refuses_a_type_law():
    # 4 type masses against a partition of the 8 tuples
    with pytest.raises(TypeError, match="no moment over its tuples; use iid_joint"):
        moment(TypeLaw(Pmf([0.5, 0.5]), IidTypes(2, 3)), Partition([list(range(8))]), 1.0)


def test_oracle_refuses_a_type_law():
    # 4 types stand for 8 tuples; types 4..7 would pass for zero-mass elements
    with pytest.raises(TypeError, match="no optimum over its tuples; use iid_joint"):
        brute_force_optimum(TypeLaw(Pmf([0.5, 0.5]), IidTypes(2, 3)), 2, 1.0)


def test_rho_prints_through_fmt_whatever_its_type():
    row = MomentReport(1, 1.0, Fraction(1, 2), 2, 2, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert row.csv_row() == "1,1,0.5,2,2,1,1,1,1,0"
    assert row._replace(rho=np.float32(1)).csv_row() == "1,1,1,2,2,1,1,1,1,0"


def test_counts_past_2_53_print_exactly():
    row = block_experiment(Pmf([0.5, 0.5]), 60, "1", 1.0, cap=1 << 61)
    assert row.csv_row().startswith(
        "60,1,1,1152921504606846976,576460752303423488,2,")


def test_report_fields_by_name_and_position():
    row = block_experiment(Pmf([0.9, 0.1]), 4, "0.9", 1.0)
    assert tuple(row) == (row.n, row.rate, row.rho, row.description_count,
                          row.used_count, row.moment, row.lower, row.upper,
                          row.m_tilde, row.delta)
    assert (row[0], row[3], row[4]) == (4, 12, row.used_count)
