"""Randomized cross-checks: columnar kernels vs the seed oracle.

The acceptance tests for the columnar backend: with ``MIN_ROWS`` forced
to 1 (so every bag takes the vectorized path), randomized sweeps over
schema shapes — including empty bags, empty and single-attribute
schemas, and multiplicities past int32 — must agree bit for bit with
the preserved seed paths (:mod:`repro.engine.reference`) and with every
Lemma 2 decider, and delete-to-zero live streams must keep snapshot
encodings exact.  Attribute names here are module-unique (``CA``,
``CB``, ...) so no index built by another test module — possibly with
an ineligibility verdict cached under the default ``MIN_ROWS`` — is
value-equal to ours.
"""

import random

import pytest

from repro.consistency.pairwise import (
    ALL_DECIDERS,
    are_consistent,
    consistency_witness,
)
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import columnar
from repro.engine.fingerprint import MASK, content_sum, row_term
from repro.engine.index import BagIndex
from repro.engine.live import LiveEngine
from repro.engine.reference import (
    seed_are_consistent,
    seed_bag_join,
    seed_consistency_witness,
    seed_marginal,
)
from repro.engine.session import Engine
from repro.errors import InconsistentError
from repro.workloads.generators import planted_stream, random_bag

needs_numpy = pytest.mark.skipif(
    not columnar.AVAILABLE, reason="columnar kernels need numpy"
)

SCHEMA_SHAPES = [
    (Schema(["CA", "CB"]), Schema(["CB", "CC"])),   # overlap on one attr
    (Schema(["CA", "CB"]), Schema(["CA", "CB"])),   # identical schemas
    (Schema(["CA", "CB", "CC"]), Schema(["CB"])),   # nested
    (Schema(["CA", "CB"]), Schema(["CC", "CD"])),   # disjoint (cartesian)
    (Schema(["CA"]), Schema(["CA"])),               # single attribute
    (Schema(["CA"]), Schema()),                     # one empty schema
    (Schema(), Schema()),                           # both empty
]


@pytest.fixture
def forced(monkeypatch):
    """Force the columnar path onto arbitrarily small bags."""
    monkeypatch.setattr(columnar, "MIN_ROWS", 1)


def random_pair(rng: random.Random) -> tuple[Bag, Bag]:
    left_schema, right_schema = SCHEMA_SHAPES[
        rng.randrange(len(SCHEMA_SHAPES))
    ]
    bags = []
    for schema in (left_schema, right_schema):
        if rng.random() < 0.15:
            bags.append(Bag.empty(schema))
        else:
            bags.append(
                random_bag(
                    schema,
                    rng,
                    domain_size=3,
                    n_tuples=rng.randint(1, 5),
                    max_multiplicity=4,
                )
            )
    return bags[0], bags[1]


@needs_numpy
class TestForcedSweep:
    """Every public operation on randomized shapes vs the seed oracle."""

    @pytest.mark.parametrize("seed", range(30))
    def test_deciders_marginals_joins_and_witnesses(self, forced, seed):
        rng = random.Random(9000 + seed)
        r, s = random_pair(rng)
        expected = seed_are_consistent(r, s)

        assert are_consistent(r, s) == expected
        for name, decider in ALL_DECIDERS:
            assert decider(r, s) == expected, name

        common = r.schema & s.schema
        for bag in (r, s):
            for target in (common, bag.schema, Schema()):
                assert bag.marginal(target) == seed_marginal(bag, target)

        assert r.bag_join(s) == seed_bag_join(r, s)

        if expected:
            witness = consistency_witness(r, s)
            assert is_witness([r, s], witness)
            # Theorem 5: support within |Supp R| + |Supp S|.
            assert len(witness.support()) <= (
                len(r.support()) + len(s.support())
            )
            assert seed_consistency_witness(r, s) is not None
        else:
            with pytest.raises(InconsistentError):
                consistency_witness(r, s)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_row_path_bit_for_bit(self, forced, seed):
        """The same operations with columnar dispatch disabled must give
        identical objects — the fallback contract both ways."""
        rng = random.Random(9500 + seed)
        r, s = random_pair(rng)
        col_verdict = are_consistent(r, s)
        col_join = r.bag_join(s)
        with columnar.disabled():
            assert are_consistent(r, s) == col_verdict
            assert r.bag_join(s) == col_join

    @pytest.mark.parametrize("extra", [False, True])
    def test_pair_kernels_align_independent_dictionaries(self, forced, extra):
        """Each side encodes against its own dictionaries: the right
        side lists the shared values in reverse order (and, with
        ``extra``, holds one the left lacks, which must take a fresh
        code), yet verdict, join and witness match the row path."""
        r = Bag.from_pairs(
            Schema(["CA", "CB"]),
            [((i, ("b", i % 5)), 1 + i % 3) for i in range(20)],
        )
        right_rows: dict = {}
        for key, mult in sorted(
            r.marginal(Schema(["CB"])).items(), reverse=True
        ):
            right_rows[(key[0], "c")] = mult
        if extra:
            right_rows[(("b", 99), "c")] = 1
        s = Bag.from_pairs(Schema(["CB", "CC"]), right_rows.items())
        el = columnar.of_index(BagIndex.of(r))
        es = columnar.of_index(BagIndex.of(s))
        assert es.dicts[0][:5] == list(reversed(el.dicts[1]))
        assert are_consistent(r, s) == (not extra)
        assert are_consistent(s, r) == (not extra)
        assert r.bag_join(s) == seed_bag_join(r, s)
        assert s.bag_join(r) == seed_bag_join(s, r)
        if not extra:
            witness = consistency_witness(r, s)
            with columnar.disabled():
                assert witness == consistency_witness(r, s)

    def test_empty_bags_witness_is_the_empty_union_bag(self, forced):
        ab = Schema(["CA", "CB"])
        bc = Schema(["CB", "CC"])
        empty_ab, empty_bc = Bag.empty(ab), Bag.empty(bc)
        assert are_consistent(empty_ab, empty_bc)
        assert consistency_witness(empty_ab, empty_bc) == Bag.empty(ab | bc)

    def test_empty_versus_nonempty_raises(self, forced):
        ab = Schema(["CA", "CB"])
        bc = Schema(["CB", "CC"])
        nonempty = Bag.from_pairs(bc, [((0, 1), 2)])
        assert not are_consistent(Bag.empty(ab), nonempty)
        with pytest.raises(InconsistentError):
            consistency_witness(Bag.empty(ab), nonempty)

    def test_multiplicities_past_int32_stay_exact(self, forced):
        big = 1 << 40  # far past int32, comfortably inside int64
        ab = Schema(["CA", "CB"])
        bc = Schema(["CB", "CC"])
        r = Bag.from_pairs(ab, [((0, 1), big), ((2, 3), big + 7)])
        s = Bag.from_pairs(bc, [((1, 0), big), ((3, 2), big + 7)])
        assert are_consistent(r, s) == seed_are_consistent(r, s)
        witness = consistency_witness(r, s)
        assert is_witness([r, s], witness)
        assert r.bag_join(s) == seed_bag_join(r, s)

    def test_overflow_multiplicities_fall_back_exactly(self, forced):
        huge = 1 << 70  # past MAX_TOTAL: arbitrary-precision regime
        ab = Schema(["CA", "CB"])
        bc = Schema(["CB", "CC"])
        r = Bag.from_pairs(ab, [((0, 1), huge)])
        s = Bag.from_pairs(bc, [((1, 0), huge)])
        columnar.reset_kernel_stats()
        assert are_consistent(r, s) == seed_are_consistent(r, s)
        witness = consistency_witness(r, s)
        assert is_witness([r, s], witness)
        assert witness == seed_consistency_witness(r, s)
        stats = columnar.kernel_stats()
        assert stats["columnar_consistency"] == 0
        assert stats["row_consistency"] > 0


@needs_numpy
class TestLiveStreams:
    def test_delete_to_zero_stream_keeps_snapshots_exact(self, forced):
        schemas = [Schema(["CA", "CB"]), Schema(["CB", "CC"])]
        rng = random.Random(42)
        bags, transactions = planted_stream(
            schemas, rng, n_transactions=120, delete_probability=0.6
        )
        live = LiveEngine()
        handles = [live.add_bag(bag) for bag in bags]
        for transaction in transactions:
            for index, row, amount in transaction:
                handle = handles[index]
                current = dict(handle.bag().items()).get(row, 0)
                live.update(handle, row, current + amount)
        for handle, seed_bag in zip(handles, bags):
            snapshot = handle.bag()
            for target in (snapshot.schema, Schema(["CB"]), Schema()):
                assert snapshot.marginal(target) == seed_marginal(
                    snapshot, target
                )
        assert live.globally_consistent() == seed_are_consistent(
            handles[0].bag(), handles[1].bag()
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_fresh_value_churn_keeps_dictionaries_bounded(self, forced, seed):
        """Every insert carries never-seen values and old rows are
        deleted: compaction must re-base the deltas' dictionaries onto
        the surviving rows (so they track the live size, not the stream
        length) while marginals and verdicts still match the row path."""
        rng = random.Random(4200 + seed)
        window, steps = 40, 600
        live = LiveEngine()
        left = live.add_bag(Bag.empty(Schema(["CA", "CB"])))
        right = live.add_bag(Bag.empty(Schema(["CB", "CC"])))
        queue: list = []
        bumped = None  # a left row whose mult is off by one, if any
        peak = compactions = 0
        last_rows = {left: 0, right: 0}
        for step in range(steps):
            b = rng.randrange(4) if rng.random() < 0.5 else ("b", step)
            lrow, rrow = (("a", step), b), (b, ("c", step))
            mult = rng.randint(1, 3)
            live.update(left, lrow, mult)
            live.update(right, rrow, mult)
            queue.append((lrow, rrow))
            if len(queue) > window:
                old_l, old_r = queue.pop(0)
                live.update(left, old_l, -left.multiplicity(old_l))
                live.update(right, old_r, -right.multiplicity(old_r))
                if bumped == old_l:
                    bumped = None
            if rng.random() < 0.1:
                if bumped is None:
                    bumped = rng.choice(queue)[0]
                    live.update(left, bumped, 1)
                else:
                    live.update(left, bumped, -1)
                    bumped = None
            if step % 5:
                continue
            lbag, rbag = left.bag(), right.bag()
            expected = seed_are_consistent(lbag, rbag)
            assert are_consistent(lbag, rbag) == expected
            assert live.globally_consistent() == expected
            for handle, snapshot in ((left, lbag), (right, rbag)):
                delta = handle._columnar
                if len(delta.rows) < last_rows[handle]:
                    compactions += 1
                last_rows[handle] = len(delta.rows)
                for j, values in enumerate(delta.dicts):
                    # exactly the stored rows' distinct values ...
                    assert len(values) == len({r[j] for r in delta.rows})
                    if not delta.dead:
                        # ... which after compaction are the live ones
                        assert len(values) == len(
                            {r[j] for r, _ in snapshot.items()}
                        )
                    peak = max(peak, len(values))
                if step % 25 == 0:
                    for target in (snapshot.schema, Schema(["CB"])):
                        assert snapshot.marginal(target) == seed_marginal(
                            snapshot, target
                        )
            if expected and step % 25 == 0:
                assert is_witness([lbag, rbag], consistency_witness(lbag, rbag))
        assert compactions > 0
        # 600 fresh values per column went through; the dictionaries
        # never held more than the window plus the dead-row allowance
        assert peak <= window + 1 + 65


@needs_numpy
class TestFingerprintSum:
    @pytest.mark.parametrize("seed", range(5))
    def test_sum_u128_equals_the_python_loop(self, seed):
        rng = random.Random(7000 + seed)
        terms = [
            row_term((rng.randrange(1000),), rng.randint(1, 1 << 45))
            for _ in range(rng.randint(1, 200))
        ]
        expected = 0
        for term in terms:
            expected += term
        assert columnar.sum_u128(terms) == (expected & MASK)

    def test_content_sum_is_backend_invariant(self, forced):
        rng = random.Random(11)
        bag = random_bag(
            Schema(["CA", "CB"]), rng, domain_size=50, n_tuples=64
        )
        items = list(bag.items())
        with columnar.disabled():
            row_sum = content_sum(items)
        assert content_sum(items) == row_sum


class TestStatsAndFallback:
    def test_kernel_stats_shape(self):
        stats = columnar.kernel_stats()
        assert stats["numpy"] == columnar.AVAILABLE
        for op in (
            "marginals", "consistency", "witnesses",
            "joins", "semijoins", "fingerprints",
        ):
            assert f"columnar_{op}" in stats
            assert f"row_{op}" in stats
        assert "encodings" in stats
        assert Engine().kernel_stats() == columnar.kernel_stats()

    def test_disabled_context_forces_the_row_path(self):
        rng = random.Random(3)
        r = random_bag(Schema(["CA", "CB"]), rng, n_tuples=4)
        s = random_bag(Schema(["CB", "CC"]), rng, n_tuples=4)
        columnar.reset_kernel_stats()
        with columnar.disabled():
            assert are_consistent(r, s) == seed_are_consistent(r, s)
        stats = columnar.kernel_stats()
        assert stats["columnar_consistency"] == 0
        assert stats["row_consistency"] == 1

    @needs_numpy
    def test_counters_record_columnar_hits(self, monkeypatch):
        monkeypatch.setattr(columnar, "MIN_ROWS", 1)
        rng = random.Random(4)
        r = random_bag(Schema(["CA", "CB"]), rng, n_tuples=6)
        s = random_bag(Schema(["CB", "CC"]), rng, n_tuples=6)
        columnar.reset_kernel_stats()
        are_consistent(r, s)
        stats = columnar.kernel_stats()
        assert stats["columnar_consistency"] == 1
        assert stats["encodings"] >= 2


@needs_numpy
class TestColumnarDelta:
    def test_updates_track_a_plain_dict(self, forced):
        rng = random.Random(5)
        mults: dict[tuple, int] = {}
        delta = columnar.ColumnarDelta(("CA", "CB"), mults)
        for step in range(300):
            row = (rng.randrange(6), rng.randrange(6))
            new = rng.randrange(4)  # 0 deletes: the delete-to-zero path
            delta.update(row, new)
            if new:
                mults[row] = new
            else:
                mults.pop(row, None)
            if step % 50 == 49:
                snapshot = delta.snapshot()
                if snapshot is not None:
                    decoded = dict(
                        zip(snapshot.rows, snapshot.mults.tolist())
                    )
                    live = {
                        row: mult for row, mult in decoded.items() if mult
                    }
                    assert live == mults

    def test_overflow_disables_the_delta(self, forced):
        delta = columnar.ColumnarDelta(("CA",), {(0,): 1})
        delta.update((0,), columnar.MAX_TOTAL + 1)
        assert delta.snapshot() is None

    def test_stale_snapshot_survives_later_materialize(self, forced):
        # REVIEW regression: _materialize must rebind rows, not extend
        # the list an earlier snapshot still aliases.
        delta = columnar.ColumnarDelta(
            ("CA", "CB"), {(i, i + 1): 1 for i in range(8)}
        )
        first = delta.snapshot()
        assert first is not None
        delta.update((99, 100), 1)  # brand-new row: staged then appended
        second = delta.snapshot()
        assert second is not None
        assert len(first.rows) == 8
        assert first.marginal_table(("CA",)) == {(i,): 1 for i in range(8)}
        assert second.marginal_table(("CA",)) == {
            **{(i,): 1 for i in range(8)}, (99,): 1
        }


def test_content_sum_streams_unsized_iterables(forced):
    # REVIEW regression: generators take the streaming row path (no
    # list materialization) and agree bit for bit with the sized path.
    pairs = [((i, i), 1 + (i % 3)) for i in range(64)]
    assert content_sum(pair for pair in pairs) == content_sum(pairs)
