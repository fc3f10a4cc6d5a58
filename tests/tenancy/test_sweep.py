"""Tenancy sweep grid: determinism across jobs, spec validation, rows."""

import dataclasses

import numpy as np
import pytest

from repro.tenancy import (
    TenancyCellSpec,
    build_tenants,
    run_tenancy_cell,
    run_tenancy_grid,
)

SPECS = [
    TenancyCellSpec(
        algorithm=algorithm,
        tenants=3,
        scheduler="round-robin",
        accesses_per_tenant=300,
        va_pages_per_tenant=128,
        tlb_entries=32,
        ram_pages=1024,
        churn=0.4,
        seed=11,
    )
    for algorithm in ("base-page", "physical-huge", "decoupled")
]


class TestSpec:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep workload"):
            TenancyCellSpec(algorithm="base-page", workload="markov")

    def test_churn_bounds(self):
        with pytest.raises(ValueError, match="churn"):
            TenancyCellSpec(algorithm="base-page", churn=1.0)


class TestCell:
    def test_row_shape_and_snapshot(self):
        row, snap = run_tenancy_cell(SPECS[0])
        assert row["algorithm"] == "base-page"
        assert row["accesses"] == 3 * 300
        assert row["shootdowns"] == 3
        assert row["cost"] > 0
        assert snap.counters["accesses"] == row["accesses"]
        assert snap.meta["runs"] == 3  # one per tenant

    def test_validated_cell_matches_plain_cell(self):
        plain, _ = run_tenancy_cell(SPECS[2])
        checked, _ = run_tenancy_cell(
            dataclasses.replace(SPECS[2], validate=True)
        )
        assert plain == checked  # validation never changes costs


class TestGrid:
    def test_jobs_parity(self):
        rows1, snap1 = run_tenancy_grid(SPECS, jobs=1)
        rows2, snap2 = run_tenancy_grid(SPECS, jobs=2)
        assert rows1 == rows2
        assert snap1 == snap2
        assert [r["algorithm"] for r in rows1] == [
            "base-page", "physical-huge", "decoupled"
        ]

    def test_decoupling_keeps_coverage_under_churn(self):
        # the headline comparison: at identical tenant churn, decoupling's
        # compressed TLB values cover h_max pages, so it sees far fewer
        # TLB misses than base pages at (near-)base-page IO traffic
        rows, _ = run_tenancy_grid(SPECS, jobs=1)
        by_alg = {r["algorithm"]: r for r in rows}
        base = by_alg["base-page"]
        dec = by_alg["decoupled"]
        phys = by_alg["physical-huge"]
        assert dec["tlb_misses"] < base["tlb_misses"]
        assert dec["ios"] <= base["ios"] * 1.05  # no amplification blow-up
        assert phys["ios"] > dec["ios"]  # physical pays page-fault amplification


JITTERED = [dataclasses.replace(spec, scheduler="jittered") for spec in SPECS]


class TestJitteredDeterminism:
    """A jittered cell draws its quanta from ``spec.seed`` alone."""

    def test_same_spec_same_rows(self):
        row_a, snap_a = run_tenancy_cell(JITTERED[0])
        row_b, snap_b = run_tenancy_cell(JITTERED[0])
        assert row_a == row_b
        assert snap_a == snap_b
        # the quanta really are jittered: more, shorter turns
        plain, _ = run_tenancy_cell(SPECS[0])
        assert row_a["turns"] > plain["turns"]

    def test_jobs_parity(self):
        rows1, snap1 = run_tenancy_grid(JITTERED, jobs=1)
        rows2, snap2 = run_tenancy_grid(JITTERED, jobs=2)
        assert rows1 == rows2
        assert snap1 == snap2

    def test_tenant_streams_do_not_depend_on_the_scheduler(self):
        # the scheduler's seed is an extra spawned child of spec.seed
        for a, b in zip(build_tenants(SPECS[0]), build_tenants(JITTERED[0])):
            assert np.array_equal(a.trace, b.trace)
