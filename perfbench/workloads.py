"""The benchmark's workloads: their inputs, operations and output checks.

An operation is one CLI invocation or one ``run_scenario`` call. A round
runs every operation of a workload once, in order; every round of a run
gets the same inputs, so a run's counts repeat round by round.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import reference as ref

CLI_TIMEOUT_S = 120


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class Workload:
    name = ""
    why = ""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root, self.seed, self.out_dir = root, seed, out_dir

    def write_inputs(self):
        """Files the setup child and the operations read."""

    def setup_code(self) -> str:
        """Python run in a fresh interpreter: import the package and load the inputs."""
        raise NotImplementedError

    def load(self):
        """Load the inputs in this process."""

    def operations(self, in_process: bool) -> list:
        """[(label, callable)]; each callable returns the operation's output."""
        raise NotImplementedError

    def check(self, label: str, output) -> list[str]:
        """Full check of one operation's output against the references."""
        raise NotImplementedError

    @staticmethod
    def same(a, b) -> bool:
        """Whether two outputs of the same operation on the same inputs agree."""
        return repr(a) == repr(b)


# ---------------------------------------------------------------------------
# trial_cli
# ---------------------------------------------------------------------------

CLI_STUB = "import sys; from proprisk.cli import main; sys.exit(main())"


class TrialCli(Workload):
    name = "trial_cli"
    why = "the analyst's CLI path on the 4,744-row trial: interpreter, imports, CSV validation, B=500 bootstrap"
    LEVEL = 0.95
    N_RESAMPLES = 500  # the CLI default
    REDRAWN = 2

    def write_inputs(self):
        """A row permutation of the bundled trial, drawn from the seed; the
        rows keep their text, so every value parses as in the original."""
        src = self.root / "src" / "proprisk" / "data" / "synthetic_trial.csv"
        header, *rows = src.read_text().splitlines()
        order = np.random.default_rng(derived_seed(self.seed, 0)).permutation(len(rows))
        self.trial = self.out_dir / f"trial_{self.seed}.csv"
        self.trial.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
        self.boot_seed = derived_seed(self.seed, 1)
        self.argv = {
            "fit": ["fit", "--data", str(self.trial), "--format", "structured", "--seed", str(self.boot_seed)],
            "fit_point": ["fit", "--bootstrap", "0", "--data", str(self.trial), "--format", "structured"],
            "ppr_fit": ["ppr-fit", "--data", str(self.trial)],
            "cox": ["cox", "--data", str(self.trial)],
        }

    def setup_code(self):
        return f"import proprisk; proprisk.read_dataset_csv({str(self.trial)!r})"

    def operations(self, in_process):
        run = self._replay if in_process else self._subprocess
        return [(label, (lambda argv=argv: run(argv))) for label, argv in self.argv.items()]

    def _subprocess(self, argv):
        p = subprocess.run(
            [sys.executable, "-c", CLI_STUB, *argv],
            capture_output=True, text=True, cwd=self.root, timeout=CLI_TIMEOUT_S,
            env=child_env(self.root),
        )
        return p.returncode, p.stdout

    @staticmethod
    def _replay(argv):
        from proprisk import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def load(self):
        import proprisk

        d = proprisk.read_dataset_csv(self.trial)
        self.data = d
        self.cols = (d.time.tolist(), d.status.tolist(), d.group.tolist())
        self.nref = ref.nppr_reference(*self.cols)
        self.eref = ref.eu_reference(*self.cols)

    def check(self, label, output):
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        if label == "fit":
            return checks.check_fit_report(payload, self.nref, with_ci=True) + self._check_bootstrap(payload)
        if label == "fit_point":
            return checks.check_fit_report(payload, self.nref, with_ci=False) + self._check_swap(payload["beta"])
        if label == "ppr_fit":
            return checks.check_ppr_fit(payload, *self.cols, self.eref)
        return checks.check_cox(payload, *self.cols)

    def _check_bootstrap(self, payload):
        """The CLI interval against the resample betas the public API gives
        for the same rows and seed."""
        import proprisk

        cfg = proprisk.BootstrapConfig(n_resamples=self.N_RESAMPLES, level=self.LEVEL, seed=self.boot_seed)
        boot = proprisk.percentile_bootstrap(self.data, cfg)
        betas = boot.betas.tolist()
        return checks.check_interval(
            payload["ci_beta"], payload["ci_rr"], betas, self.N_RESAMPLES, boot.n_failed, self.LEVEL
        ) + checks.check_redrawn(*self.cols, self.boot_seed, self.N_RESAMPLES, betas, self.REDRAWN)

    def _check_swap(self, beta):
        import proprisk

        d = self.data
        swapped = proprisk.Dataset.from_columns(d.time, d.status, 1 - d.group)
        return checks.check_swap(beta, proprisk.nppr_fit(swapped).estimate.beta)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# ---------------------------------------------------------------------------
# study workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Cell:
    label: str
    model: str
    effect: float
    censoring: float
    n: int


class Study(Workload):
    CELLS: tuple = ()
    REPS = 0
    COVERAGE = False
    N_RESAMPLES = 250
    EU_SAMPLES = 4  # EU fits per PR cell checked against the reference search
    REDRAWN = 2

    def setup_code(self):
        keys = [(c.model, c.effect, c.censoring, c.n) for c in self.CELLS]
        return (
            "import proprisk\n"
            f"keys = {keys!r}\n"
            "cells = [s for s in proprisk.default_grid()"
            " if (s.model.value, s.effect_beta, s.censor_rate, s.n_participants) in keys]\n"
            "if len(cells) != len(keys): raise SystemExit('grid cells missing')\n"
        )

    def load(self):
        import proprisk

        grid = {(s.model.value, s.effect_beta, s.censor_rate, s.n_participants): s for s in proprisk.default_grid()}
        self.scenarios = {
            c.label: dataclasses.replace(grid[(c.model, c.effect, c.censoring, c.n)], seed=derived_seed(self.seed, i))
            for i, c in enumerate(self.CELLS)
        }
        self.config = proprisk.BootstrapConfig(n_resamples=self.N_RESAMPLES)

    def operations(self, in_process=True):
        import proprisk

        def op(scenario):
            return proprisk.study.run_scenario(
                scenario, self.REPS, with_coverage=self.COVERAGE,
                bootstrap_config=self.config, fit_competitor=False if self.COVERAGE else None,
            )

        return [(c.label, (lambda s=self.scenarios[c.label]: op(s))) for c in self.CELLS]

    def check(self, label, result):
        import proprisk

        sc = self.scenarios[label]
        reps = [proprisk.simulate_dataset(sc, r) for r in range(self.REPS)]
        cols = [(d.time.tolist(), d.status.tolist(), d.group.tolist()) for d in reps]
        nrefs = [ref.nppr_reference(*c) for c in cols]
        fit_competitor = sc.model is proprisk.Model.PPR_EU and not self.COVERAGE
        fails = []
        fits = None
        if fit_competitor:
            fits = [proprisk.fit_ppr(d) for d in reps]
            converged = [r for r, fit in enumerate(fits) if fit.converged]
            for r in converged[:: max(1, len(converged) // self.EU_SAMPLES)][: self.EU_SAMPLES]:
                msgs = checks.check_ppr_fit(checks.ppr_payload(fits[r]), *cols[r], ref.eu_reference(*cols[r]))
                fails += [f"replicate {r}: {m}" for m in msgs]
            fits = [(fit.converged, fit.beta) for fit in fits]
        fails += checks.check_cell(result, sc.effect_beta, nrefs, fits)
        censored = sum(int(np.sum(d.status == 0)) for d in reps)
        fails += checks.check_censoring(censored, self.REPS * sc.n_participants, sc.censor_rate)
        if self.COVERAGE:
            fails += self._check_bootstrap(reps, cols, nrefs)
        return fails

    def _check_bootstrap(self, reps, cols, nrefs):
        """One replicate's percentile interval, through the public API."""
        import proprisk

        r = next(i for i, nref in enumerate(nrefs) if nref is not None)
        seed = derived_seed(self.seed, 100 + r)
        boot = proprisk.percentile_bootstrap(reps[r], proprisk.BootstrapConfig(self.N_RESAMPLES, seed=seed))
        ci = lambda c: {"lower": c.lower, "upper": c.upper, "level": c.level, "n_effective": c.n_effective}
        betas = boot.betas.tolist()
        return checks.check_interval(
            ci(boot.ci_beta), ci(boot.ci_rr), betas, self.N_RESAMPLES, boot.n_failed, 0.95
        ) + checks.check_redrawn(*cols[r], seed, self.N_RESAMPLES, betas, self.REDRAWN)


class StudyCells(Study):
    name = "study_cells"
    why = "run_scenario without coverage on three grid cells: EU fit at the bound, small-n interior EU fits, PH (no EU)"
    REPS = 200
    CELLS = (
        Cell("pr05_c30_n500", "ppr_eu", 0.5, 0.3, 500),
        Cell("pr00_c70_n50", "ppr_eu", 0.0, 0.7, 50),
        Cell("ph05_c30_n500", "weibull_ph", 0.5, 0.3, 500),
    )


class StudyCoverage(Study):
    name = "study_coverage"
    why = "run_scenario with B=250 bootstrap coverage at PR 0.25, n=500, 30% and 70% censoring: per-resample NPPR"
    REPS = 10
    COVERAGE = True
    CELLS = (
        Cell("pr025_c30_n500_cov", "ppr_eu", 0.25, 0.3, 500),
        Cell("pr025_c70_n500_cov", "ppr_eu", 0.25, 0.7, 500),
    )


WORKLOADS = {w.name: w for w in (TrialCli, StudyCells, StudyCoverage)}
ALL_CELLS = [c.label for w in (StudyCells, StudyCoverage) for c in w.CELLS]
