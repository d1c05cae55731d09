"""Experiment runner.

Subcommands: prepare, train, evaluate, baselines, ablate, sweep, selfcheck.
Configuration is a flat key=value file plus command-line overrides, one
flag per config key, each value parsed the same way from either; each
command writes its resolved config next to its artifacts so every output is
reproducible from config + seed alone. A command checks its inputs before it
writes anything, so one that exits 2 leaves no output directory behind; `train`
and `ablate` also write nothing when training diverges.

Exit codes: 0 success; 2 bad input (`error: ...`), a `BadInput` or an OS
error on a path; 1 a model whose training or ranking diverged
(`diverged: ...`), or any other exception, a fault in the package
(`internal error: ...`). `sweep` records a point that fails with `BadInput`
or `Diverged` and goes on; any other error ends it.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines as bl
from .evaluation import MetricsReport, evaluate, format_report_table, report_from_ranks
from .geodata import (
    ROW_ABS_TOL_KM,
    ROW_CACHE_CAPACITY,
    ROW_REL_MIN_KM,
    ROW_REL_TOL,
    PoiTable,
    SpatialRowCache,
    haversine_km,
)
from .ingest import (
    ParseResult,
    PreparedCorpus,
    SPLITS,
    SampleBatch,
    atomic_open,
    load_corpus,
    parse_foursquare,
    parse_gowalla,
    prepare,
    write_corpus,
)
from .model import (
    HyperParams,
    ModelParams,
    VARIANTS,
    expect_compatible,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    target_ranks,
    zero_params,
)
from .numerics import BadInput, Diverged, make_rng, seeded_generators, softmax_cross_entropy
from .synthetic import corpus_from_events, random_instance
from .train import (
    FitResult,
    TrainConfig,
    check_fit_inputs,
    check_fit_memory,
    finite_difference_check,
    fit,
    format_train_table,
    write_train_log,
)


@dataclass
class ExperimentConfig:
    data: str = ""
    format: str = "foursquare"
    out: str = "out"
    seed: int = 0
    d: int = 64
    h: int = 256
    w: int = 1
    batch: int = 128
    lr: float = 0.001
    epochs: int = 100
    patience: int = 5
    k: tuple[int, ...] = (1, 5, 10)
    variant: str = "bi-stddp"
    metric: str = "val_map"
    min_user: int = 10
    min_poi_users: int = 10
    filter_fixpoint: bool = False
    cache_capacity: int = ROW_CACHE_CAPACITY


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_FORMATS = ("foursquare", "gowalla")


def _parse_bool(s: str) -> bool:
    if s.lower() in ("1", "true", "yes"):
        return True
    if s.lower() in ("0", "false", "no"):
        return False
    raise ValueError(s)


def _parse_ks(s: str) -> tuple[int, ...]:
    ks = tuple(dict.fromkeys(int(x) for x in s.split(",")))  # first occurrences, in order
    if any(k < 1 for k in ks):
        raise ValueError(s)
    return ks


# the parser of each config value, by the type of its default
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str, tuple: _parse_ks}


def load_config_file(path) -> dict[str, str]:
    """Flat UTF-8 key=value lines, each key a config key at most once; blank
    lines and # comments allowed, NUL bytes not. BadInput names the file and line."""
    raw: dict[str, str] = {}
    for lineno, data in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = data.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise BadInput(f"{path}:{lineno}: not UTF-8: byte 0x{data[exc.start]:02x} "
                           f"at column {exc.start + 1}") from None
        if (nul := data.find(b"\0")) >= 0:  # no path can hold one, so no value may
            raise BadInput(f"{path}:{lineno}: NUL byte at column {nul + 1}")
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise BadInput(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise BadInput(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise BadInput(f"{path}:{lineno}: config key {key!r} is set again")
        raw[key] = value
    return raw


def build_config(file_values: dict[str, str], flag_values: dict[str, str]) -> ExperimentConfig:
    """A validated config from the file's values, then the flags' over them;
    both are strings of config keys (`load_config_file` checked the file's),
    parsed the same way."""
    cfg = ExperimentConfig()
    for key, value in [*file_values.items(), *flag_values.items()]:
        try:
            parsed = _PARSERS[type(getattr(cfg, key))](value)
        except ValueError:
            raise BadInput(f"bad value for {key}: {value!r}") from None
        cfg = replace(cfg, **{key: parsed})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.format not in _FORMATS:
        raise BadInput(f"unknown format {cfg.format!r}")
    if cfg.variant not in VARIANTS:
        raise BadInput(f"unknown variant {cfg.variant!r}; choose from {sorted(VARIANTS)}")
    for name in ("d", "h", "w", "batch", "epochs", "patience", "cache_capacity",
                 "min_user", "min_poi_users"):
        if getattr(cfg, name) < 1:
            raise BadInput(f"{name} must be >= 1")
    TrainConfig(seed=cfg.seed, lr=cfg.lr, metric=cfg.metric)  # raises on a bad seed, lr or metric


def _config_text(cfg: ExperimentConfig, command: str) -> str:
    lines = [f"# resolved config for `{command}`"]
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name == "k":
            v = ",".join(str(x) for x in v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def _out_dir(cfg: ExperimentConfig, command: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    with atomic_open(out / "config.txt") as fh:
        fh.write(_config_text(cfg, command))
    return out


def _sparsity(users: int, pois: int, checkins: int) -> float:
    return 1.0 - checkins / (users * pois)


def _stats_rows(parsed: ParseResult, prepared_corpus: PreparedCorpus):
    corpus = prepared_corpus.corpus
    return [
        ("raw", len(parsed.user_ids), len(parsed.table), len(parsed.checkins)),
        ("filtered", corpus.n_users, corpus.n_pois, corpus.n_checkins),
    ]


def cmd_prepare(cfg: ExperimentConfig) -> int:
    if not cfg.data:
        raise BadInput("prepare needs --data (raw check-in file)")
    parser = parse_foursquare if cfg.format == "foursquare" else parse_gowalla
    parsed = parser(cfg.data)
    if parsed.malformed:
        print(f"skipped {len(parsed.malformed)} malformed lines "
              f"(first: line {parsed.malformed[0][0]}: {parsed.malformed[0][1]})")
    prepared_corpus = prepare(
        parsed, cfg.w, cfg.min_user, cfg.min_poi_users, cfg.filter_fixpoint
    )
    out = _out_dir(cfg, "prepare")
    corpus_path = out / "corpus.tsv"
    write_corpus(corpus_path, prepared_corpus)

    rows = _stats_rows(parsed, prepared_corpus)
    _write_csv(out / "stats.csv", [["stage", "users", "pois", "checkins", "sparsity"]]
               + [[stage, str(n), str(m), str(c), f"{_sparsity(n, m, c):.6f}"]
                  for stage, n, m, c in rows])
    print(f"{'stage':<10}{'#user':>8}{'#POI':>8}{'#check_in':>11}{'sparsity':>10}")
    for stage, n, m, c in rows:
        print(f"{stage:<10}{n:>8}{m:>8}{c:>11}{100 * _sparsity(n, m, c):>9.3f}%")
    sizes = ", ".join(f"{t} {len(prepared_corpus.samples_for(t))}" for t in SPLITS)
    print(f"samples: {len(prepared_corpus.samples)} ({sizes})")
    print(f"wrote {corpus_path}")
    return 0


@dataclass
class Setup:
    """What a corpus command runs on, loaded and checked against each other
    before the command writes anything."""

    cfg: ExperimentConfig  # w is the corpus's; d and h are the checkpoint's, if there is one
    args: argparse.Namespace  # the command's own flags
    data: PreparedCorpus
    params: ModelParams | None  # the checkpoint (--checkpoint or --resume-from), if any
    cache: SpatialRowCache


def _set_up(cfg: ExperimentConfig, set_keys, args: argparse.Namespace) -> Setup:
    """Load the corpus and any checkpoint. Unset, w means the corpus's window
    and d and h the checkpoint's; a key in `set_keys` (set explicitly) must match."""
    if not cfg.data:
        raise BadInput("data= must point at a prepared corpus file")
    data = load_corpus(cfg.data)
    if "w" in set_keys and cfg.w != data.window:
        raise BadInput(
            f"w={cfg.w} was set, but {cfg.data} was prepared with w={data.window}; "
            f"the window is fixed at prepare time (prepare --w {cfg.w})")
    cfg, params, path = replace(cfg, w=data.window), None, getattr(args, "checkpoint", None)
    if path is not None:
        params, corpus = load_checkpoint(path), data.corpus
        expect_compatible(params, corpus.n_users, corpus.n_pois, data.window, path, cfg.data)
        for key in ("d", "h"):
            if key in set_keys and getattr(cfg, key) != getattr(params.hyper, key):
                raise BadInput(
                    f"{key}={getattr(cfg, key)} was set, but checkpoint {path} has "
                    f"{key}={getattr(params.hyper, key)}; a checkpoint fixes d and h")
        cfg = replace(cfg, d=params.hyper.d, h=params.hyper.h)
    cache = SpatialRowCache(data.corpus.poi_table, capacity=cfg.cache_capacity)
    return Setup(cfg, args, data, params, cache)


def _split_samples(run: Setup, split: str) -> SampleBatch:
    samples = run.data.samples_for(split)
    if not samples:
        raise BadInput(f"no samples in split {split!r}")
    return samples


def _check_fit_inputs(cfg: ExperimentConfig, data: PreparedCorpus) -> None:
    check_fit_inputs(data.samples_for("train"), data.samples_for("val"), cfg.metric)


def _model_report(cfg: ExperimentConfig, params: ModelParams, samples: SampleBatch,
                  cache: SpatialRowCache) -> MetricsReport:
    """`cfg.variant`'s metrics at `cfg.k` on `samples`, ranked through the batched path."""
    ranks = target_ranks(samples, params, cache, VARIANTS[cfg.variant])
    return report_from_ranks(ranks, cfg.k)


def _fit(cfg: ExperimentConfig, prepared_corpus: PreparedCorpus, cache: SpatialRowCache,
         params: ModelParams | None = None) -> FitResult:
    """Train `cfg.variant` on the train split, early-stopping on val.

    `params` are the tensors to start from; by default they are drawn from
    `cfg.seed`, whose second generator shuffles the batches either way.
    Training buffers that physical memory cannot hold are refused first.
    """
    corpus, train_samples = prepared_corpus.corpus, prepared_corpus.samples_for("train")
    init_rng, shuffle_rng = seeded_generators(cfg.seed, 2)
    # the window is baked into the corpus file at prepare time
    hp = HyperParams(d=cfg.d, h=cfg.h, w=prepared_corpus.window) if params is None else params.hyper
    check_fit_memory(hp, corpus.n_users, corpus.n_pois, min(cfg.batch, len(train_samples)))
    if params is None:
        params = init_params(hp, corpus.n_users, corpus.n_pois, init_rng)
    tc = TrainConfig(
        batch_size=cfg.batch, max_epochs=cfg.epochs, patience=cfg.patience,
        seed=cfg.seed, lr=cfg.lr, metric=cfg.metric,
    )
    return fit(
        train_samples,
        prepared_corpus.samples_for("val"),
        params,
        corpus.poi_table,
        tc,
        VARIANTS[cfg.variant],
        cache=cache,
        rng=shuffle_rng,
    )


def cmd_train(run: Setup) -> int:
    cfg, data = run.cfg, run.data
    _check_fit_inputs(cfg, data)
    print(f"corpus: N={data.corpus.n_users} M={data.corpus.n_pois} w={data.window}")
    result = _fit(cfg, data, run.cache, run.params)
    out = _out_dir(cfg, "train")
    save_checkpoint(out / "checkpoint.bin", result.params)
    write_train_log(out / "train_log.csv", result.log)
    print(format_train_table(result.log))
    # fit scores -loss, so the loss is the best value negated
    best = -result.best_value if cfg.metric == "train_loss" else result.best_value
    print(f"best epoch {result.best_epoch} ({cfg.metric}={best:.6f}); "
          f"checkpoint -> {out / 'checkpoint.bin'}")
    return 0


def cmd_evaluate(run: Setup) -> int:
    cfg, split = run.cfg, run.args.split
    samples = _split_samples(run, split)
    # scored before anything is written: a checkpoint that fails to score leaves no --out
    report = _model_report(cfg, run.params, samples, run.cache)
    out = _out_dir(cfg, "evaluate")
    _write_csv(out / f"report_{split}.csv", [["metric", "value"], *zip(
        _metric_head(cfg.k), _metric_cells(report, cfg.k)), ["instances", str(report.count)]])
    print(format_report_table({cfg.variant: report}))
    return 0


def cmd_baselines(run: Setup) -> int:
    samples = _split_samples(run, run.args.split)
    out = _out_dir(run.cfg, "baselines")
    rankers = bl.BaselineRankers(run.data.corpus, run.data.split)
    reports = {name: evaluate(ranker, samples, ks=run.cfg.k)
               for name, ranker in rankers.named().items()}
    _write_report_grid(out / "baselines.csv", reports, run.cfg.k)
    if rankers.top2_fallbacks:
        print(f"top2 fell back to top1 for {rankers.top2_fallbacks} instances")
    return 0


def _metric_head(ks) -> list[str]:
    return [f"recall@{k}" for k in ks] + [f"f1@{k}" for k in ks] + ["map"]


def _metric_cells(rep: MetricsReport | None, ks) -> list[str]:
    """`rep` as CSV cells in `_metric_head` order; empty cells for no report."""
    if rep is None:
        return [""] * (2 * len(ks) + 1)
    return [f"{rep.recall[k]:.6f}" for k in ks] + [f"{rep.f1[k]:.6f}" for k in ks] + [f"{rep.map:.6f}"]


def _write_csv(path, rows: list[list[str]]) -> None:
    """`rows` as CSV, a cell quoted where it holds a comma, a quote or a line end."""
    with atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_report_grid(path, reports: dict[str, MetricsReport], ks) -> None:
    """One CSV row per named report; the same rows are printed as one table."""
    _write_csv(path, [["model", *_metric_head(ks), "instances"]]
               + [[name, *_metric_cells(rep, ks), str(rep.count)] for name, rep in reports.items()])
    print(format_report_table(reports))


def cmd_ablate(run: Setup) -> int:
    cfg = run.cfg
    test_samples = _split_samples(run, "test")
    _check_fit_inputs(cfg, run.data)
    reports: dict[str, MetricsReport] = {}
    for name in VARIANTS:  # VARIANTS lists the ablation table in order
        # shared seed and data: every variant starts from the same tensors
        point = replace(cfg, variant=name)
        result = _fit(point, run.data, run.cache)
        reports[name] = _model_report(point, result.params, test_samples, run.cache)
        print(f"{name}: done ({result.epochs_run} epochs)")
    _write_report_grid(_out_dir(cfg, "ablate") / "ablation.csv", reports, cfg.k)
    return 0


def _parse_grid(grid: str) -> tuple[str, list[int]]:
    if "=" not in grid:
        raise BadInput(f"--grid wants param=v1,v2,..., got {grid!r}")
    param, values = grid.split("=", 1)
    param = param.strip()
    if param not in ("d", "h", "w"):
        raise BadInput(f"sweep parameter must be d, h or w, not {param!r}")
    try:
        vals = [int(v) for v in values.split(",")]
    except ValueError:
        raise BadInput(f"bad grid values {values!r}") from None
    if not vals or any(v < 1 for v in vals):
        raise BadInput("grid values must be >= 1")
    return param, vals


def cmd_sweep(run: Setup) -> int:
    param, values = _parse_grid(run.args.grid)
    cfg = run.cfg
    out = _out_dir(cfg, "sweep")
    rows = []
    for value in values:
        point = replace(cfg, **{param: value})
        try:
            data = PreparedCorpus(run.data.corpus, value) if param == "w" else run.data
            test = data.samples_for("test")
            if not test:  # raise what training, then scoring, would raise, but train nothing
                _check_fit_inputs(point, data)
                raise BadInput("no samples to evaluate")
            result = _fit(point, data, run.cache)
            rep = _model_report(point, result.params, test, run.cache)
            rows.append((value, rep, "ok"))
            print(f"{param}={value}: map={rep.map:.4f}")
        except (BadInput, Diverged) as exc:  # the point's failure; any other error ends the sweep
            rows.append((value, None, f"error: {exc}"))
            print(f"{param}={value}: FAILED ({exc})", file=sys.stderr)
    _write_csv(out / "sweep.csv", [["param", "value", *_metric_head(cfg.k), "status"]]
               + [[param, str(v), *_metric_cells(rep, cfg.k), status] for v, rep, status in rows])
    print(f"wrote {out / 'sweep.csv'}")
    return 1 if all(status != "ok" for _, _, status in rows) else 0


def _count_tables_match_recount(data: PreparedCorpus) -> bool:
    """`fit_counts`' tables against a check-in-by-check-in recount of the train
    segments, with every head in ranking order (count descending, then tie)."""
    pairs, visits, previous = Counter(), Counter(), None
    for u, p, segment in zip(data.corpus.checkins.users.tolist(),
                             data.corpus.checkins.pois.tolist(), data.split.tolist()):
        if segment == 0:
            visits[u, p] += 1
            if previous is not None and previous[0] == u:
                pairs[previous[1], p] += 1
        previous = (u, p) if segment == 0 else None
    trans, pop = bl.fit_counts(data.corpus, data.split)
    # (p, q) keyed by p then by q; ties break by TOP1 position there and by
    # POI index in the per-user table
    checks = [(trans.forward, pairs, "top1_pos"),
              (trans.backward, {(q, p): c for (p, q), c in pairs.items()}, "top1_pos"),
              (pop.users, visits, "pois")]
    ok = True
    for table, expected, tie in checks:
        keys = np.repeat(np.arange(len(table.offsets) - 1), np.diff(table.offsets)).tolist()
        rows = list(zip(keys, (-table.counts).tolist(), getattr(table, tie).tolist()))
        ok &= (dict(zip(zip(keys, table.pois.tolist()), table.counts.tolist())) == expected
               and np.array_equal(table.top1_pos, pop.top1_pos[table.pois])
               and all(a < b for a, b in zip(rows, rows[1:])))
    return ok


def cmd_selfcheck(cfg: ExperimentConfig) -> int:
    """Gradient oracle, distance rows, metric report, ranks, corpus file, baseline
    tables; the CI gate."""
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {label}{'  ' + detail if detail else ''}")
        failures += 0 if ok else 1

    for name, variant in VARIANTS.items():
        for seed in (0, 1):
            table, params, sample = random_instance(seed, m=12, n=4, d=3, h=5, w=1)
            report = finite_difference_check(SampleBatch.from_samples([sample]), params,
                                             SpatialRowCache(table), variant)
            check(f"gradient oracle {name} seed {seed}", report.ok,
                  f"max rel err {report.max_error:.2e}")

    # every POI paired with a neighbour under a few metres away or a near-antipode
    rng = make_rng(13)
    lat, lon = rng.uniform([-85, -175], [85, 175], (20, 2)).T  # lat, lon drawn in turn
    jitter_lat, jitter_lon = rng.uniform(-2e-5, 2e-5, (10, 2)).T
    lat = np.r_[lat, lat[:10] + jitter_lat, -lat[10:20] + 1e-7]
    lon = np.r_[lon, lon[:10] + jitter_lon, lon[10:20] - np.copysign(180.0, lon[10:20])]
    table = PoiTable([f"p{i}" for i in range(len(lat))], lat, lon)
    rows = np.array([table.distance_row_km(i) for i in range(len(table))])
    points = list(zip(lat.tolist(), lon.tolist()))
    exact = np.array([[haversine_km(*p, *q) for q in points] for p in points])
    err, far = np.abs(rows - exact), exact >= ROW_REL_MIN_KM
    rel, near = float(np.max(err[far] / exact[far])), float(np.max(err[~far]))
    check("distance rows match haversine_km", rel <= ROW_REL_TOL and near <= ROW_ABS_TOL_KM,
          f"max rel err {rel:.2e}, max abs err {near:.1e} km under 1 m")

    # the report against a direct count: recall@k the share of truths at position <= k,
    # F1 exactly 2R/(K+1), MAP the in-order sum of 1/position over n
    rng = make_rng(7)
    ranks = [rng.permutation(m).tolist().index(rng.integers(m)) + 1
             for m in rng.integers(3, 30, 50).tolist()]
    rep, n, ap_total = report_from_ranks(ranks), len(ranks), 0.0
    for r in ranks:
        ap_total += 1.0 / r
    check("f1/recall identity on random rankings",
          rep.map == ap_total / n
          and all(rep.recall[k] == sum(r <= k for r in ranks) / n
                  and rep.f1[k] == 2.0 * rep.recall[k] / (k + 1) for k in (1, 5, 10)))

    # the loss and probabilities as training computes them, on a batch of one
    table, _, sample = random_instance(3, m=40, n=3, d=4, h=6, w=1)
    one, zero = SampleBatch.from_samples([sample]), zero_params(HyperParams(d=4, h=6, w=1), 3, 40)
    probs = forward_batch(one, zero, SpatialRowCache(table)).logits
    loss = float(softmax_cross_entropy(probs, one.targets)[0])  # leaves the softmax in probs
    check("zero model is uniform with loss ln M",
          abs(loss - math.log(40)) < 1e-9 and np.all(np.abs(probs - 1.0 / 40) < 1e-12),
          f"loss {loss:.9f}")

    # one sample per target, more than one rank chunk; the zero model ties
    # every candidate, so target t must rank t + 1
    m = 150
    table, params, sample = random_instance(4, m=m, n=4, d=3, h=5, w=1)
    batch = replace(SampleBatch.from_samples([sample]).take(np.zeros(m, dtype=np.int64)),
                    targets=np.arange(m), users=np.arange(m) % 4)
    tied, rows = zero_params(params.hyper, params.n_users, m), SpatialRowCache(table)
    ranks_ok = True
    for variant in VARIANTS.values():
        for p in (params, tied):
            probs = forward_batch(batch, p, rows, variant).logits
            softmax_cross_entropy(probs, batch.targets)
            order = np.argsort(-probs, axis=1, kind="stable")
            expected = 1 + np.argmax(order == batch.targets[:, None], axis=1)
            ranks_ok &= np.array_equal(target_ranks(batch, p, rows, variant), expected)
        ranks_ok &= target_ranks(batch, tied, rows, variant).tolist() == list(range(1, m + 1))
    check("batched ranks match a stable argsort of the probabilities", ranks_ok)

    # the corpus file stores check-ins only; loading rebuilds split and samples.
    # Offsets of -12 h .. +14 h move check-ins across local midnight.
    rng = make_rng(11)
    coords = rng.uniform([-60, -170], [60, 170], (30, 2))  # lat, lon drawn in turn
    events = [[(int(rng.integers(30)), 1_500_000_000 + 5_000 * i + int(rng.integers(5_000)),
                60 * int(rng.integers(-12, 15))) for i in range(40)] for _ in range(6)]
    source = PreparedCorpus(corpus_from_events(coords, events), 2)
    with tempfile.TemporaryDirectory() as tmp:
        write_corpus(Path(tmp) / "corpus.tsv", source)
        back = load_corpus(Path(tmp) / "corpus.tsv")
    columns = [(getattr(back.samples, f.name), getattr(source.samples, f.name))
               for f in fields(SampleBatch)] + [(back.split, source.split)]
    check("corpus file round trip reproduces prepare's sample columns",
          all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in columns))
    check("baseline count tables match a recount, heads in ranking order",
          _count_tables_match_recount(source))

    z = np.array([[1000.0, 1000.0]])
    loss = softmax_cross_entropy(z, np.array([0]))
    check("softmax_cross_entropy overflow guard",
          np.allclose(z, 0.5) and abs(loss[0] - math.log(2)) < 1e-12)
    return 0 if failures == 0 else 1


_FLAG_HELP = {
    "data": "input path (raw dump for prepare, corpus file otherwise)",
    "out": "output directory",
    "d": "embedding dimension",
    "h": "hidden units",
    "w": "context window width",
    "k": "comma-separated cutoffs, e.g. 1,5,10",
    "metric": "early-stop metric (default val_map)",
}
_CHOICES = {"format": _FORMATS, "variant": sorted(VARIANTS)}
_SPLIT = ("--split", {"choices": SPLITS, "default": "test"})

# name -> (command, the flags it takes besides --config and one per config key);
# every command but prepare and selfcheck runs on a corpus file, set up by main
COMMANDS = {
    "prepare": (cmd_prepare, []),
    "train": (cmd_train, [("--resume-from", {"dest": "checkpoint"})]),
    "evaluate": (cmd_evaluate, [("--checkpoint", {"required": True}), _SPLIT]),
    "baselines": (cmd_baselines, [_SPLIT]),
    "ablate": (cmd_ablate, []),
    "sweep": (cmd_sweep, [("--grid", {"required": True,
                                      "help": "param=v1,v2,... with param in d,h,w"})]),
    "selfcheck": (cmd_selfcheck, []),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bistddp",
                                     description="missing check-in identification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, own_flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        for f in fields(ExperimentConfig):  # values stay strings, for build_config to parse
            flag = "--" + f.name.replace("_", "-")
            if isinstance(f.default, bool):
                p.add_argument(flag, dest=f.name, action="store_const", const="true")
            else:
                p.add_argument(flag, dest=f.name, choices=_CHOICES.get(f.name),
                               help=_FLAG_HELP.get(f.name))
        for flag, options in own_flags:
            p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = load_config_file(args.config) if args.config else {}
        flag_values = {key: getattr(args, key) for key in _CONFIG_KEYS
                       if getattr(args, key) is not None}
        cfg = build_config(file_values, flag_values)
        command = COMMANDS[args.command][0]
        if args.command in ("prepare", "selfcheck"):
            return command(cfg)
        return command(_set_up(cfg, file_values.keys() | flag_values.keys(), args))
    except (BadInput, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Diverged as exc:  # from training, or from ranking a checkpoint's scores
        print(f"diverged: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault in the package, a ValueError among them
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
