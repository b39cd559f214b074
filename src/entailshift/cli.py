"""Command-line entry points for the shift-adaptation toolkit."""
from __future__ import annotations

import functools
from pathlib import Path

import click

from . import __version__
from .corpus import Dataset, ShiftSpec, apply_shift, load_dataset, save_dataset
from .experiment import (
    ExperimentConfig,
    emit_report,
    load_result,
    run_experiment,
    save_result,
)
from .methods import (
    METHOD_KINDS,
    MethodSpec,
    load_predictions,
    resolve_catalog,
    run_method,
    save_predictions,
)
from .model import FeaturizerConfig, TrainConfig
from .reformulate import augment_dataset, export_augmented
from .stats import confusion_from_predictions, macro_f1, per_class_f1

_MODE_BY_FLAG = {"single": "single_segment", "two": "two_segment", "auto": None}

_in_file = click.Path(exists=True, dir_okay=False, path_type=Path)
_out_file = click.Path(dir_okay=False, writable=True, path_type=Path)


def _friendly_errors(fn):
    """Surface expected failures as clean CLI errors instead of tracebacks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Adapt text classifiers to sudden label-definition shifts."""


@main.command("simulate-shift")
@click.option("--in", "in_path", type=_in_file, required=True, help="Dataset to relabel (JSONL or CSV with a .labels.json sidecar).")
@click.option("--spec", "spec_path", type=_in_file, required=True, help="Shift rule file mapping (topic, pre_label) to post_label.")
@click.option("--out", "out_path", type=_out_file, required=True, help="Where to write the relabeled dataset.")
@_friendly_errors
def simulate_shift(in_path: Path, spec_path: Path, out_path: Path) -> None:
    """Rewrite every example's post-shift label through a shift rule file."""
    dataset = load_dataset(in_path)
    shift = ShiftSpec.from_file(spec_path)
    shifted = apply_shift(dataset, shift)
    save_dataset(shifted, out_path)
    click.echo(f"wrote {len(shifted.examples)} examples to {out_path}")


@main.command("augment")
@click.option("--in", "in_path", type=_in_file, required=True, help="Post-shift labeled dataset to reformulate.")
@click.option("--catalog", required=True, help="Prompt catalog: builtin id (en-retail, es-retail, en-news) or a JSON file path.")
@click.option("--mode", type=click.Choice(["single", "two", "auto"]), default="auto", show_default=True, help="Concatenation layout; auto infers from text_b presence.")
@click.option("--oversample/--no-oversample", default=True, show_default=True, help="Add one span-deleted positive per example.")
@click.option("--deletion-frac", default=0.05, show_default=True, help="Fraction of tokens deleted from oversampled positives.")
@click.option("--seed", default=0, show_default=True, help="Seed for oversampling span positions.")
@click.option("--out", "out_path", type=_out_file, required=True, help="Where to write the binary samples (JSONL).")
@_friendly_errors
def augment(in_path: Path, catalog: str, mode: str, oversample: bool,
            deletion_frac: float, seed: int, out_path: Path) -> None:
    """Expand each example into one binary entailment sample per candidate label."""
    dataset = load_dataset(in_path)
    prompt_catalog = resolve_catalog(catalog)
    augmented = augment_dataset(
        dataset, prompt_catalog, mode=_MODE_BY_FLAG[mode],
        oversample=oversample, deletion_frac=deletion_frac, seed=seed,
    )
    export_augmented(augmented, out_path)
    click.echo(
        f"wrote {len(augmented.samples)} samples "
        f"({augmented.n_positive} positive) to {out_path}"
    )


@main.command("train")
@click.option("--method", "kind", type=click.Choice(METHOD_KINDS), required=True)
@click.option("--train", "train_path", type=_in_file, required=True, help="Post-shift labeled training data (the few-shot budget).")
@click.option("--pre-train", "pre_train_path", type=_in_file, default=None, help="Pre-shift labeled training data for warm starts; omit to skip.")
@click.option("--test", "test_path", type=_in_file, required=True, help="Examples to predict.")
@click.option("--out", "out_path", type=_out_file, required=True, help="Where to write predictions (JSONL).")
@click.option("--catalog", default="", help="Prompt catalog id or path (entail only).")
@click.option("--variant", type=click.Choice(["informative", "random"]), default="informative", show_default=True, help="Prompt wording (entail only).")
@click.option("--epochs", default=TrainConfig.epochs, show_default=True)
@click.option("--learning-rate", default=TrainConfig.learning_rate, show_default=True)
@click.option("--batch-size", default=TrainConfig.batch_size, show_default=True)
@click.option("--l2", "l2_penalty", default=TrainConfig.l2_penalty, show_default=True)
@click.option("--seed", default=TrainConfig.seed, show_default=True)
@click.option("--dim", default=FeaturizerConfig.dim, show_default=True, help="Hashed feature space size (power of two).")
@click.option("--oversample/--no-oversample", default=True, show_default=True, help="Oversample positives (entail only).")
@click.option("--mode", type=click.Choice(["single", "two", "auto"]), default="auto", show_default=True, help="Concatenation layout (entail only).")
@_friendly_errors
def train(kind: str, train_path: Path, pre_train_path: Path | None, test_path: Path,
          out_path: Path, catalog: str, variant: str, epochs: int, learning_rate: float,
          batch_size: int, l2_penalty: float, seed: int, dim: int, oversample: bool,
          mode: str) -> None:
    """Fit one method and write its test-set predictions."""
    post_train = load_dataset(train_path)
    test = load_dataset(test_path)
    if pre_train_path is None:
        pre_train = Dataset(
            examples=(), pre_labels=post_train.pre_labels, post_labels=post_train.post_labels)
    else:
        pre_train = load_dataset(pre_train_path)
    spec = MethodSpec(
        kind=kind,
        prompt_variant=variant if kind == "entail" else "informative",
        catalog_id=catalog,
        train_config=TrainConfig(
            epochs=epochs, learning_rate=learning_rate, batch_size=batch_size,
            seed=seed, l2_penalty=l2_penalty),
        featurizer=FeaturizerConfig(dim=dim),
        oversample=oversample,
        concat_mode=_MODE_BY_FLAG[mode],
    )
    predictions = run_method(spec, pre_train, post_train, test)
    save_predictions(predictions, out_path)
    click.echo(f"wrote {len(predictions)} predictions to {out_path}")


@main.command("eval")
@click.option("--pred", "pred_path", type=_in_file, required=True, help="Predictions JSONL from `train`.")
@click.option("--gold", "gold_path", type=_in_file, required=True, help="Dataset with gold post-shift labels.")
@_friendly_errors
def eval_predictions(pred_path: Path, gold_path: Path) -> None:
    """Score predictions against gold post-shift labels (macro-F1 x 100)."""
    gold = load_dataset(gold_path)
    predictions = load_predictions(pred_path)
    missing = sorted(ex.id for ex in gold if ex.id not in predictions)
    if missing:
        raise click.ClickException(f"no prediction for ids: {', '.join(missing[:10])}")
    confusion = confusion_from_predictions(
        [ex.post_label for ex in gold],
        [predictions[ex.id] for ex in gold],
        gold.post_labels,
    )
    click.echo(f"macro_f1 {macro_f1(confusion) * 100:.2f}")
    for label, value in zip(gold.post_labels, per_class_f1(confusion)):
        click.echo(f"f1[{label}] {value * 100:.2f}")


@main.command("experiment")
@click.option("--config", "config_path", type=_in_file, required=True, help="Experiment config (JSON).")
@click.option("--workers", default=None, type=int, help="Parallel cell workers; defaults to $ENTAILSHIFT_WORKERS or 1.")
@_friendly_errors
def experiment(config_path: Path, workers: int | None) -> None:
    """Run the full (method, budget, seed) grid and write all reports."""
    config = ExperimentConfig.from_file(config_path)
    result = run_experiment(config, workers=workers)
    save_result(result, config.output_dir)
    written = emit_report(result, config.output_dir, formats=("md", "csv"))
    click.echo(
        f"{len(result.scores)} cells scored, {len(result.failures)} failed; "
        f"results in {config.output_dir}"
    )
    for path in written:
        click.echo(f"wrote {path}")
    if result.failures:
        for failure in result.failures:
            click.echo(
                f"FAILED {failure.method} / {failure.budget} / seed {failure.seed}: "
                f"{failure.error}", err=True)
        raise SystemExit(1)


@main.command("report")
@click.option("--result", "result_dir", type=click.Path(exists=True, file_okay=False, path_type=Path), required=True, help="Directory holding result.json.")
@click.option("--format", "formats", default="md,csv", show_default=True, help="Comma-separated subset of md,csv.")
@_friendly_errors
def report(result_dir: Path, formats: str) -> None:
    """Re-emit report files from a stored experiment result."""
    wanted = [f.strip() for f in formats.split(",") if f.strip()]
    if not wanted:
        raise click.ClickException("no report formats requested")
    result = load_result(result_dir)
    for path in emit_report(result, result_dir, formats=wanted):
        click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
