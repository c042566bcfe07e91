"""The three workloads of the benchmark of record.

Each workload is a class whose constructor is the set-up, whose :meth:`rep`
is one closed-loop repetition of the timed body, and whose :meth:`finish`
runs outside the timed region: the checks that need extra work (the serial
replay of ``mc_campaign``), fidelity, and any end-to-end metric that the
workload's body does not exercise (see ``perfbench/README.md``).

Every call into the program goes through :meth:`Ops.call`, which counts it
as attempted, and as failed when it raises or its output fails the check.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from repro.channel import GenerativeChannel, SimulatorChannel
from repro.core import ModelConfig, Trainer, build_model
from repro.data import crop_blocks, generate_paired_dataset
from repro.ecc import (BCHCode, LDPCCode, evaluate_bch_over_channel,
                       evaluate_ldpc_over_channel)
from repro.eval.divergences import total_variation_distance
from repro.eval.error_counts import error_counts_from_samples
from repro.eval.histograms import conditional_pdfs
from repro.experiments import (ExperimentSetup, run_fig2, run_fig4, run_fig5,
                               run_fig6)
from repro.flash import BlockGeometry, FlashParameters
from repro.nn import use_backend
from repro.obs import process_registry, span

from perfbench.instrument import registry_delta

PE_CYCLES = (4000, 7000, 10000)
#: Histogram resolution of the fidelity metrics (as the Fig. 4 benchmark).
FIDELITY_BINS = 120


def derive_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed derived from the workload seed and integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0]
               >> 1)


class OpFailed(Exception):
    """An operation raised; the run stops and reports it as failed."""


class Ops:
    """Counts operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, name: str, problem: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {problem}")
        print(f"perfbench: FAILED {name}: {problem}", file=sys.stderr)

    def call(self, name: str, fn, *args, check=None, **kwargs):
        """Run ``fn``; ``check(result)`` returns a problem string or None."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as error:
            traceback.print_exc(file=sys.stderr)
            self._fail(name, repr(error))
            raise OpFailed(name) from error
        problem = check(result) if check is not None else None
        if problem:
            self._fail(name, problem)
        return result

    def verify(self, name: str, problem: str | None) -> None:
        """Count a check made outside any call (e.g. a replay comparison)."""
        self.attempted += 1
        if problem:
            self._fail(name, problem)


class Phases:
    """Wall time per named phase of a repetition, and, while tracing, the
    metric-registry delta of each phase (the kernels a phase ran)."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.seconds: dict[str, float] = defaultdict(float)
        self.deltas: dict[str, list] = defaultdict(list)

    @contextmanager
    def __call__(self, name: str):
        before = process_registry().snapshot() if self.traced else None
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start
            if before is not None:
                self.deltas[name].append(
                    registry_delta(before, process_registry().snapshot()))


# ---------------------------------------------------------------------- #
# Output checks: each returns a problem string, or None when correct
# ---------------------------------------------------------------------- #
def check_finite_stats(stats: dict) -> str | None:
    bad = {key: value for key, value in stats.items()
           if not np.isfinite(value)}
    return f"non-finite training losses {bad}" if bad else None


def check_voltages(voltages: np.ndarray,
                   params: FlashParameters) -> str | None:
    voltages = np.asarray(voltages)
    if voltages.size == 0:
        return "no voltages"
    low, high = float(voltages.min()), float(voltages.max())
    if not (params.voltage_min <= low and high <= params.voltage_max):
        return (f"voltages [{low}, {high}] outside "
                f"[{params.voltage_min}, {params.voltage_max}]")
    return None


def check_campaign(result, code, codewords: int) -> str | None:
    records = result.frame_records
    if records is None or records.shape != (codewords, 3):
        return f"frame records shape {getattr(records, 'shape', None)}"
    for name in ("frame_error_rate", "raw_bit_error_rate",
                 "post_correction_bit_error_rate"):
        value = getattr(result, name)
        if not 0.0 <= value <= 1.0:
            return f"{name}={value} outside [0, 1]"
    failed = int(records[:, 1].sum())
    if failed != result.frames_failed \
            or failed != round(result.frame_error_rate * codewords):
        return (f"{failed} failed frames disagree with "
                f"FER {result.frame_error_rate} of {codewords}")
    if int(records[:, 0].sum()) != round(result.raw_bit_error_rate
                                         * codewords * code.n):
        return "raw bit errors disagree with the RBER"
    return None


def check_fig2(result) -> str | None:
    rates = result.level_error_rates
    if set(rates) != set(PE_CYCLES):
        return f"level error rates at {sorted(rates)}"
    if not all(0.0 <= rate <= 1.0 for rate in rates.values()):
        return f"level error rates {rates} outside [0, 1]"
    return None


def check_fig4(result) -> str | None:
    distances = [row["tv_distance"] for row in result.rows()]
    if len(distances) != 7 * len(PE_CYCLES):
        return f"{len(distances)} PDF comparisons"
    if not all(0.0 <= value <= 1.0 for value in distances):
        return "TV distance outside [0, 1]"
    return None


def check_fig5(result) -> str | None:
    for pe, totals in result.totals().items():
        for label, total in totals.items():
            if not (np.isfinite(total) and total >= 0):
                return f"{label} total {total} at {pe} P/E"
        if totals.get("M", 0) <= 0 or totals.get("cV-G", 0) <= 0:
            return f"no measured or modelled errors at {pe} P/E"
    return None


def check_fig6(result) -> str | None:
    for direction, values in result.rank_agreement_top5.items():
        if not 0.0 <= values <= 1.0:
            return f"{direction} rank agreement {values}"
    return None


# ---------------------------------------------------------------------- #
# Fidelity: the Fig. 4 and Fig. 5 summaries as single numbers
# ---------------------------------------------------------------------- #
def tv_mean(fig4_result) -> float:
    return float(np.mean([row["tv_distance"] for row in fig4_result.rows()]))


def count_log_gap(fig5_result) -> float:
    totals = fig5_result.totals()
    return float(np.mean([abs(np.log(totals[pe]["cV-G"] / totals[pe]["M"]))
                          for pe in totals]))


def channel_fidelity(channel, measured: dict, params: FlashParameters,
                     ops: Ops) -> dict[str, float]:
    """``fig4_tv_mean`` and ``fig5_count_log_gap`` of ``channel`` against
    measured ``{pe: (program, voltages)}`` arrays, computed as Figs. 4 and 5
    compute them."""
    distances, gaps = [], []
    for pe, (program, voltages) in sorted(measured.items()):
        modelled = ops.call(f"fidelity_read@{pe}", channel.read_voltages,
                            program, pe, rng=np.random.default_rng(pe),
                            check=lambda v: check_voltages(v, params))
        real = conditional_pdfs(program, voltages, bins=FIDELITY_BINS,
                                params=params)
        fake = conditional_pdfs(program, modelled, bins=FIDELITY_BINS,
                                params=params)
        distances += [total_variation_distance(real[level][1],
                                               fake[level][1])
                      for level in real]
        measured_errors = error_counts_from_samples(program, voltages,
                                                    params=params).sum()
        modelled_errors = error_counts_from_samples(program, modelled,
                                                    params=params).sum()
        # One error either side keeps the log finite on an error-free draw.
        gaps.append(abs(np.log((modelled_errors + 1) / (measured_errors + 1))))
    return {"fig4_tv_mean": float(np.mean(distances)),
            "fig5_count_log_gap": float(np.mean(gaps))}


def _ldpc_code() -> LDPCCode:
    """The length-96 regular (3, 6) Gallager code every campaign decodes."""
    return LDPCCode.regular(n=96, rng=np.random.default_rng(1))


# ---------------------------------------------------------------------- #
# figure_run
# ---------------------------------------------------------------------- #
#: Seed of the figure run's training data and streams, and of its FER
#: campaigns: fixed, so every run trains the same model and decodes the same
#: codewords.  That model sits near the decoding threshold, where the share
#: of codewords that converge, and with it the decode time, swings by tens
#: of percent with the campaign seed.
FIGURE_MODEL_SEED = 2022


class FigureRun:
    """Train the cVAE-GAN, sample and regenerate Figs. 4-6, run an LDPC FER
    sweep.

    The quick profile of ``ExperimentSetup``: 16x16 arrays, 150 paired
    arrays per P/E point (450 in all), batch 16, and the 10 epochs of the
    figure benchmarks under ``benchmarks/``.  The workload seed draws the
    evaluation blocks and the latent samples.
    """

    name = "figure_run"
    executor = "serial"
    workers = 1
    warmup_reps = 0  # one repetition fills the window; set-up primes
    fer_codewords = 256
    eval_blocks = 8
    #: Latent samples per evaluation array, as the paper evaluates.
    samples = 10

    def __init__(self, seed: int):
        self.seed = seed
        self.setup = ExperimentSetup(scale="quick", arrays_per_pe=150,
                                     training_epochs=10,
                                     seed=FIGURE_MODEL_SEED)
        self.params = self.setup.params
        with span("data.dataset"):
            self.dataset = self.setup.dataset()
        simulator = SimulatorChannel(
            self.params, geometry=BlockGeometry(64, 64),
            rng=np.random.default_rng(derive_seed(seed, 0)))
        self.evaluation = {}
        for pe in PE_CYCLES:
            program, voltages = simulator.paired_blocks(self.eval_blocks, pe)
            self.evaluation[pe] = (crop_blocks(program, 16),
                                   crop_blocks(voltages, 16))
        self.code = _ldpc_code()
        self.channels = [simulator]
        self._prime()

    def _prime(self) -> None:
        """A few train steps and a read on a throwaway model, so one-time
        costs (kernel compiles, arena buffers) land in set-up."""
        config = self.setup.model_config()
        model = build_model("cvae_gan", config,
                            rng=self.setup.spawn_rng("prime"))
        trainer = Trainer(model, self.dataset, params=self.params,
                          rng=self.setup.spawn_rng("prime-train"),
                          max_steps_per_epoch=2)
        trainer.train_epoch()
        channel = GenerativeChannel(model, params=self.params,
                                    rng=self.setup.spawn_rng("prime-read"))
        channel.read_voltages(self.evaluation[PE_CYCLES[0]][0], PE_CYCLES[0])

    def rep(self, index: int, ops: Ops, phase: Phases) -> dict:
        setup, params = self.setup, self.params
        config = setup.model_config()
        with phase("train"):
            # What ExperimentSetup.train_generative_model does (which would
            # return its cached model on a second call).
            model = build_model("cvae_gan", config,
                                rng=setup.spawn_rng("init:cvae_gan"))
            trainer = Trainer(model, self.dataset, params=params,
                              rng=setup.spawn_rng("train:cvae_gan"))
            for _ in range(config.epochs):
                ops.call("train_epoch", trainer.train_epoch,
                         check=check_finite_stats)
            channel = GenerativeChannel(
                model, params=params,
                rng=np.random.default_rng(derive_seed(self.seed, index)))
        self.channels = [self.channels[0], channel]
        programs = np.concatenate([program for program, _
                                   in self.evaluation.values()])
        with phase("sample"):
            sampled = ops.call(
                "read_repeated", channel.read_repeated, programs, 7000,
                self.samples, check=lambda v: check_voltages(v, params))
        with phase("figures"):
            with span("experiments.fig4"):
                fig4 = ops.call("fig4", run_fig4, self.evaluation, channel,
                                bins=FIDELITY_BINS, executor="serial",
                                check=check_fig4)
            with span("experiments.fig5"):
                fig5 = ops.call("fig5", run_fig5, self.dataset,
                                self.evaluation, generative_model=channel,
                                params=params, baseline_iterations=200,
                                rng=np.random.default_rng(
                                    derive_seed(self.seed, index, 5)),
                                executor="serial", check=check_fig5)
            with span("experiments.fig6"):
                ops.call("fig6", run_fig6, *self.evaluation[7000], channel,
                         7000, params=params, executor="serial",
                         check=check_fig6)
        with phase("fer"):
            for pe in PE_CYCLES:
                ops.call(f"ldpc@{pe}", evaluate_ldpc_over_channel, self.code,
                         channel, pe, num_codewords=self.fer_codewords,
                         seed=derive_seed(FIGURE_MODEL_SEED, pe),
                         executor="serial",
                         check=lambda r: check_campaign(r, self.code,
                                                        self.fer_codewords))
        seconds = phase.seconds
        return {
            "train_arrays_per_s":
                config.epochs * len(self.dataset) / seconds["train"],
            "sample_voltages_per_s": sampled.size / seconds["sample"],
            "fer_codewords_per_s":
                len(PE_CYCLES) * self.fer_codewords / seconds["fer"],
            "fig4_tv_mean": tv_mean(fig4),
            "fig5_count_log_gap": count_log_gap(fig5),
        }

    def finish(self, ops: Ops) -> dict:
        return {}


# ---------------------------------------------------------------------- #
# mc_campaign
# ---------------------------------------------------------------------- #
#: Seed of the campaign channel's weights: fixed, so the decoder's load does
#: not move with the workload seed or with a change to a default.
CAMPAIGN_MODEL_SEED = 2023


class McCampaign:
    """Fig. 2 and BCH/LDPC FER campaigns on a process pool, no training."""

    name = "mc_campaign"
    executor = "process"
    workers = 2
    warmup_reps = 2
    bch_codewords = 128
    ldpc_codewords = 256
    fig2_blocks = 30
    replay_codewords = 32

    def __init__(self, seed: int):
        self.seed = seed
        self.params = FlashParameters()
        self.code_bch = BCHCode(m=6, t=4)
        self.code_ldpc = _ldpc_code()
        model_setup = ExperimentSetup(scale="quick", arrays_per_pe=150,
                                      seed=CAMPAIGN_MODEL_SEED)
        with span("data.dataset"):
            dataset = model_setup.dataset()
        config = model_setup.model_config()
        # Pinned to numpy eager so the weights do not depend on defaults.
        with use_backend("numpy"):
            model = build_model("cvae_gan", config,
                                rng=model_setup.spawn_rng("init"))
            trainer = Trainer(model, dataset, params=self.params,
                              rng=model_setup.spawn_rng("train"), lazy=False)
            start = time.perf_counter()
            trainer.train(epochs=1)
            #: Measured in every set-up; the run reports the median.
            self.setup_rates = {"train_arrays_per_s": len(dataset)
                                / (time.perf_counter() - start)}
        self.losses_finite = all(
            np.isfinite(value) for record in trainer.history.generator
            for value in record.values())
        self.generative = GenerativeChannel(
            model, params=self.params,
            rng=np.random.default_rng(CAMPAIGN_MODEL_SEED))
        self.simulator = SimulatorChannel(
            self.params, geometry=BlockGeometry(64, 64),
            rng=np.random.default_rng(derive_seed(seed, 0)))
        self.channels = [self.simulator, self.generative]
        self.last: list = []
        # Prime the default backend's sampling path in this process, so
        # one-time costs land in set-up and forked workers inherit them.
        program = self.simulator.program_random_block(
            rng=np.random.default_rng(derive_seed(seed, 1)))
        self.generative.read_voltages(program[:16, :96], PE_CYCLES[0],
                                      rng=np.random.default_rng(0))

    def _campaigns(self):
        for label, channel in (("sim", self.simulator),
                               ("gen", self.generative)):
            for pe in PE_CYCLES:
                yield (f"bch/{label}@{pe}", evaluate_bch_over_channel,
                       self.code_bch, channel, pe, self.bch_codewords)
                yield (f"ldpc/{label}@{pe}", evaluate_ldpc_over_channel,
                       self.code_ldpc, channel, pe, self.ldpc_codewords)

    def rep(self, index: int, ops: Ops, phase: Phases) -> dict:
        with phase("fig2"), span("experiments.fig2"):
            ops.call("fig2", run_fig2, self.simulator,
                     blocks_per_pe=self.fig2_blocks,
                     rng=np.random.default_rng(derive_seed(self.seed, index)),
                     executor=self.executor, workers=self.workers,
                     check=check_fig2)
        self.last = []
        voltages = codewords = 0
        for key, (name, evaluate, code, channel, pe, count) in enumerate(
                self._campaigns()):
            seed = derive_seed(self.seed, index, key)
            with phase("gen" if channel is self.generative else "sim"):
                result = ops.call(
                    name, evaluate, code, channel, pe, num_codewords=count,
                    seed=seed, executor=self.executor, workers=self.workers,
                    check=lambda r, c=code, n=count: check_campaign(r, c, n))
            self.last.append((name, evaluate, code, channel, pe, seed,
                              result))
            codewords += count
            if channel is self.generative:
                voltages += count * code.n
        seconds = phase.seconds
        return {
            "sample_voltages_per_s": voltages / seconds["gen"],
            "fer_codewords_per_s":
                codewords / (seconds["gen"] + seconds["sim"]),
        }

    def finish(self, ops: Ops) -> dict:
        ops.verify("campaign_model_losses",
                   None if self.losses_finite
                   else "non-finite campaign-model training losses")
        # Serial replay of a reduced plan: the same seed over fewer codeword
        # groups must reproduce the prefix of the pooled campaign's records.
        for name, evaluate, code, channel, pe, seed, result in self.last:
            replay = ops.call(f"replay/{name}", evaluate, code, channel, pe,
                              num_codewords=self.replay_codewords, seed=seed,
                              executor="serial")
            prefix = result.frame_records[:self.replay_codewords]
            ops.verify(f"replay/{name}",
                       None if np.array_equal(replay.frame_records, prefix)
                       else "pooled records differ from the serial replay")
        measured = {}
        for pe in PE_CYCLES:
            program, voltages = self.simulator.paired_blocks(
                4, pe, rng=np.random.default_rng(derive_seed(self.seed, pe)))
            measured[pe] = (crop_blocks(program, 16),
                            crop_blocks(voltages, 16))
        return channel_fidelity(self.generative, measured, self.params, ops)


# ---------------------------------------------------------------------- #
# paper_scale
# ---------------------------------------------------------------------- #
#: Seed of the untrained paper-scale weights.
PAPER_MODEL_SEED = 64


class PaperScale:
    """Remarks 1 and 2 at full size: 64x64 arrays, C64..C512, batch 2."""

    name = "paper_scale"
    executor = "serial"
    workers = 1
    warmup_reps = 1  # set-up already ran a step and a read
    steps_per_rep = 2
    read_blocks = 2
    samples = 10
    fer_codewords = 32

    def __init__(self, seed: int):
        self.seed = seed
        self.params = FlashParameters()
        self.config = ModelConfig.paper()
        self.simulator = SimulatorChannel(
            self.params, geometry=BlockGeometry(64, 64),
            rng=np.random.default_rng(derive_seed(seed, 0)))
        with span("data.dataset"):
            self.dataset = generate_paired_dataset(
                self.simulator, pe_cycles=PE_CYCLES, arrays_per_pe=8,
                array_size=self.config.array_size)
        model = build_model("cvae_gan", self.config,
                            rng=np.random.default_rng(PAPER_MODEL_SEED))
        self.trainer = Trainer(model, self.dataset, params=self.params,
                               rng=np.random.default_rng(derive_seed(seed, 1)))
        self.generative = GenerativeChannel(
            model, params=self.params,
            rng=np.random.default_rng(derive_seed(seed, 2)))
        block_rng = np.random.default_rng(derive_seed(seed, 3))
        self.blocks = np.stack([
            self.simulator.program_random_block(rng=block_rng)
            for _ in range(self.read_blocks)])
        self.channels = [self.simulator, self.generative]
        self.code = _ldpc_code()
        self.cursor = 0
        # One step and one read: one-time costs land in set-up.
        self._train_step(Ops())
        self.generative.read_repeated(self.blocks[:1], PE_CYCLES[0],
                                      self.samples)

    def _train_step(self, ops: Ops) -> None:
        batch = self.config.batch_size
        rows = (np.arange(batch) + self.cursor) % len(self.dataset)
        self.cursor += batch
        data = self.dataset
        ops.call("train_step", self.trainer.train_step,
                 data.program_levels[rows], data.voltages[rows],
                 data.pe_cycles[rows], check=check_finite_stats)

    def rep(self, index: int, ops: Ops, phase: Phases) -> dict:
        with phase("train"):
            for _ in range(self.steps_per_rep):
                self._train_step(ops)
        pe = PE_CYCLES[index % len(PE_CYCLES)]
        with phase("sample"):
            voltages = ops.call(
                "read_repeated", self.generative.read_repeated, self.blocks,
                pe, self.samples,
                check=lambda v: check_voltages(v, self.params))
        return {
            "train_arrays_per_s": self.steps_per_rep * self.config.batch_size
                                  / phase.seconds["train"],
            "sample_voltages_per_s": voltages.size / phase.seconds["sample"],
        }

    def probe(self, index: int, ops: Ops) -> dict:
        """A small serial LDPC campaign over the paper-scale channel after
        each timed repetition, outside its wall time."""
        start = time.perf_counter()
        ops.call("fer_probe", evaluate_ldpc_over_channel, self.code,
                 self.generative, 7000, num_codewords=self.fer_codewords,
                 seed=derive_seed(self.seed, index, 7000), executor="serial",
                 check=lambda r: check_campaign(r, self.code,
                                                self.fer_codewords))
        return {"fer_codewords_per_s":
                self.fer_codewords / (time.perf_counter() - start)}

    def finish(self, ops: Ops) -> dict:
        measured = {pe: self.simulator.paired_blocks(
            4, pe, rng=np.random.default_rng(derive_seed(self.seed, pe)))
            for pe in PE_CYCLES}
        return channel_fidelity(self.generative, measured, self.params, ops)


WORKLOADS = {cls.name: cls for cls in (FigureRun, McCampaign, PaperScale)}
