"""The benchmark's workloads: one lptrim CLI command each, with its work count.

Each workload is a subcommand plus config fields.  The fields are turned into
CLI flags for the measured ``lptrim.cli.main(argv)`` call, and into a resolved
``ExperimentConfig`` for the set-up measurement, so both see the same config.
NOTES.md says why each workload was chosen and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: lemma-check CLI defaults: 4 laws, p in {1, 2, 3}, and 4 validators per (law, p, trial)
LEMMA_LAWS = 4
LEMMA_PS = 3
LEMMA_VALIDATORS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    fields: dict = field(default_factory=dict)

    def argv(self, seed: int, out_dir: str) -> list[str]:
        """CLI arguments for one single-process run writing into ``out_dir``."""
        args = [self.command]
        for key, value in self.fields.items():
            args += ["--" + key.replace("_", "-"), str(value)]
        return args + ["--seed", str(seed), "--out-dir", out_dir, "--threads", "1"]

    def overrides(self, seed: int, out_dir: str) -> dict:
        """The same settings as :meth:`argv`, as ``ExperimentConfig`` overrides."""
        return {**self.fields, "seed": seed, "out_dir": out_dir, "threads": 1}

    @property
    def prefix(self) -> str:
        """Stem of the rows and summary files the command writes."""
        return {"sandwich": "sandwich", "compare": "compare",
                "ratio-check": "ratio", "lemma-check": "lemma"}[self.command]

    def _get(self, key: str, default: int) -> int:
        return int(self.fields.get(key, default))

    @property
    def units(self) -> int:
        """Work units of one run, the numerator of ``evals_per_s``.

        sandwich and compare: trials x directions; ratio-check: trials x
        (directions + 2 dim), the probe set plus the signed axes; lemma-check:
        validator outcomes.  Defaults are the CLI's.
        """
        trials = self._get("trials", 20)
        directions = self._get("directions", 500)
        if self.command in ("sandwich", "compare"):
            return trials * directions
        if self.command == "ratio-check":
            return trials * (directions + 2 * self._get("dim", 20))
        return LEMMA_LAWS * trials * LEMMA_PS * LEMMA_VALIDATORS

    @property
    def rows(self) -> int:
        """Data rows the command writes to its rows file."""
        if self.command == "compare":
            return self._get("trials", 20)
        return self.units


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance sandwich config at p=3 with 200 of its 500 directions:
        # MomentOracle's float pow over 10^6 x 200 reference projections
        # dominates time and peak memory, and a run takes seconds, not tens.
        Workload("sandwich-laplace-p3", "sandwich", {
            "dist": "product_laplace", "dim": 20, "p": 3, "epsilon": 0.25,
            "directions": 200, "sample_c1": 8, "theta_c0": 0.0625,
        }),
        # The heavy-tail comparison shape: closed-form truths, so the
        # per-direction project / sort / estimate loop is nearly all the time.
        # On a shared 2-vCPU host, runs shorter than about 3 s swing by a third
        # from one run to the next; 100 trials average over the swings.
        Workload("compare-student-t", "compare", {
            "dist": "product_student_t", "nu": 4.5, "dim": 20, "n": 1000, "p": 2,
            "theta": 0.002, "directions": 500, "trials": 100,
        }),
        # The ratio-property event shape: analytic marginals, so the exact
        # property scans dominate and no reference law is built.  4 trials
        # keep a run near 3 s for the same reason as the comparison.
        Workload("ratio-gaussian", "ratio-check", {
            "dist": "gaussian", "dim": 10, "n": 10_000, "delta": 0.05,
            "directions": 200, "trials": 4,
        }),
        # Empirical reference laws: 40 non-axis directions overflow the
        # 32-entry reference cache, so every trial rebuilds every reference.
        # References of 10^5 rows (10 n) instead of 10^6 keep one run near
        # 3 s; the builds still dominate.
        Workload("ratio-laplace-ref", "ratio-check", {
            "dist": "product_laplace", "dim": 10, "n": 10_000, "delta": 0.05,
            "directions": 40, "trials": 2, "ref_size": 100_000,
        }),
        # lemma-check on its default grid (4 laws, p in {1, 2, 3}): the only
        # quadrature and validator load.  40 trials, not the default 20, keep
        # a run near 3 s for the same reason as the comparison.
        Workload("lemma-grid", "lemma-check", {"trials": 40}),
    )
}
