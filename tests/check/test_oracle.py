"""Invariant-oracle tests: clean runs stay clean, injected breaks get caught.

Two halves:

* **fuzz** — seeded random traces (zipf / uniform / markov phases) through
  every registered algorithm under :class:`ValidatingMM`: zero violations,
  and validated costs bit-identical to unvalidated ones;
* **mutation** — corrupt one structure at a time (``φ``, ``ψ``, the TLB,
  the ledger, the bucket loads) and assert the oracle reports exactly that
  break as a structured :class:`InvariantViolation`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantViolation, ValidatingMM
from repro.mmu import (
    MM_NAMES,
    BasePageMM,
    DecoupledMM,
    PhysicalHugePageMM,
    array_engine,
    make_mm,
)
from repro.workloads import MarkovPhaseWorkload, UniformWorkload, ZipfWorkload

PAGES = 1 << 12
TLB = 64
RAM = 1024


def _workload(kind: str):
    if kind == "zipf":
        return ZipfWorkload(PAGES, s=1.0)
    if kind == "uniform":
        return UniformWorkload(PAGES)
    return MarkovPhaseWorkload(
        [ZipfWorkload(PAGES, s=1.0), UniformWorkload(PAGES)], mean_dwell=300
    )


class TestCleanRunsValidate:
    @pytest.mark.parametrize("workload", ["zipf", "uniform", "markov"])
    @pytest.mark.parametrize("name", MM_NAMES)
    def test_no_violations_on_real_algorithms(self, name, workload):
        trace = _workload(workload).generate(4000, seed=7)
        mm = make_mm(name, TLB, RAM, seed=11)
        validated = ValidatingMM(mm, deep_every=512)
        validated.run(trace[:2000])
        validated.reset_stats()  # warm-up boundary under validation
        validated.run(trace[2000:])
        assert validated.oracle.accesses_checked == 4000
        assert validated.oracle.deep_checks >= 2  # cadence sweeps + end-of-run

    @pytest.mark.parametrize("name", MM_NAMES)
    def test_validated_costs_are_bit_identical(self, name):
        trace = ZipfWorkload(PAGES, s=1.0).generate(3000, seed=3)
        plain = make_mm(name, TLB, RAM, seed=5)
        checked = make_mm(name, TLB, RAM, seed=5)
        plain.run(trace)
        validated = ValidatingMM(checked)
        ledger = validated.run(trace)
        assert ledger is checked.ledger  # shared, not copied
        assert ledger.as_dict() == plain.ledger.as_dict()

    def test_wrapper_replays_on_the_object_engine(self, monkeypatch):
        # every request goes through the oracle's access(): the wrapper
        # never offers the array engine, whatever the default engine
        def no_engine(mm, trace):  # pragma: no cover - failure path
            raise AssertionError("a validated run reached the array engine")

        monkeypatch.setattr(array_engine, "try_run", no_engine)
        validated = ValidatingMM(make_mm("decoupled", TLB, RAM, seed=5))
        assert validated.engine == "object"
        validated.run(ZipfWorkload(PAGES, s=1.0).generate(3000, seed=3))
        assert validated.oracle.accesses_checked == 3000

    def test_refuses_double_wrapping(self):
        validated = ValidatingMM(BasePageMM(TLB, RAM))
        with pytest.raises(TypeError):
            ValidatingMM(validated)

    @given(vpns=st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_traces_never_violate(self, vpns):
        validated = ValidatingMM(DecoupledMM(8, 256, seed=1), deep_every=64)
        validated.run(vpns)
        validated.check_invariants()


def _warm_decoupled(n: int = 1500):
    """A DecoupledMM with a populated active set, plus one placed page."""
    mm = DecoupledMM(TLB, RAM, seed=2)
    validated = ValidatingMM(mm, deep_every=0)
    validated.run(ZipfWorkload(PAGES, s=1.0).generate(n, seed=2))
    scheme = mm.system.scheme
    placed = sorted(scheme.active_set - scheme.failure_set)
    assert placed, "warm run placed no pages"
    return mm, validated, scheme, placed[0]


class TestMutationsAreCaught:
    def test_corrupted_phi_is_caught_on_access(self):
        mm, validated, scheme, vpn = _warm_decoupled()
        # move the page's frame without telling ψ: decode now disagrees
        scheme.allocator._frame_of[vpn] += 1
        with pytest.raises(InvariantViolation) as err:
            validated.access(vpn)
        assert err.value.invariant in ("decode-consistency", "phi-stability")
        assert err.value.vpn == vpn
        assert err.value.algorithm == "decoupled"
        assert "ledger" in err.value.snapshot

    def test_corrupted_psi_is_caught_by_deep_check(self):
        mm, validated, scheme, vpn = _warm_decoupled()
        # drop the stored encoding of the page's whole huge-page word
        del scheme._psi[vpn // scheme.hmax]
        with pytest.raises(InvariantViolation) as err:
            validated.check_invariants()
        assert err.value.invariant == "structural"

    def test_wide_psi_is_caught_by_deep_check(self):
        mm, validated, scheme, vpn = _warm_decoupled()
        # a bit past the w-bit payload: every field still decodes, so
        # only the width rule sees it
        scheme._psi[vpn // scheme.hmax] |= 1 << scheme.codec.w
        with pytest.raises(InvariantViolation) as err:
            validated.check_invariants()
        assert err.value.invariant == "structural"
        assert "does not fit" in str(err.value)

    def test_overfilled_tlb_is_caught(self):
        mm = PhysicalHugePageMM(8, 256, huge_page_size=16)
        validated = ValidatingMM(mm, deep_every=0)
        validated.run(UniformWorkload(PAGES).generate(800, seed=4))
        assert len(mm.tlb) == 8  # full
        mm.tlb.policy.insert(10**9, 0)  # smuggle a 9th entry past the cache
        with pytest.raises(InvariantViolation) as err:
            validated.check_invariants()
        assert err.value.invariant in ("tlb-capacity", "structural")

    def test_tampered_ledger_is_caught(self):
        mm = BasePageMM(TLB, RAM)
        validated = ValidatingMM(mm)
        original = mm.access

        def double_counting(vpn):
            original(vpn)
            mm.ledger.tlb_hits += 1

        mm.access = double_counting
        with pytest.raises(InvariantViolation) as err:
            validated.access(0)
        assert err.value.invariant == "ledger-coherence"
        assert err.value.t == 0

    def test_unquantized_io_is_caught(self):
        mm = PhysicalHugePageMM(TLB, 256, huge_page_size=16)
        validated = ValidatingMM(mm)
        original = mm.access

        def leaking_io(vpn):
            original(vpn)
            mm.ledger.ios += 1  # not a multiple of h

        mm.access = leaking_io
        with pytest.raises(InvariantViolation) as err:
            validated.access(0)
        assert err.value.invariant == "io-accounting"

    def test_overfull_bucket_is_caught(self):
        mm, validated, scheme, vpn = _warm_decoupled()
        game = scheme.allocator.game
        game._max_load = scheme.allocator.bucket_size + 3
        with pytest.raises(InvariantViolation) as err:
            validated.check_invariants()
        assert err.value.invariant == "bucket-capacity"

    def test_violation_message_carries_context(self):
        err = InvariantViolation(
            "decode-consistency", "f != phi", algorithm="decoupled", t=17, vpn=42
        )
        text = str(err)
        assert "decode-consistency" in text
        assert "t=17" in text and "vpn=42" in text and "decoupled" in text
        assert isinstance(err, AssertionError)  # pytest-friendly lineage
