"""Training loop: cross-entropy, Adam, warm-up, plateau decay, early stop.

The learning rate ramps linearly over the warm-up epochs, then divides by
`decay_factor` whenever the stagnation metric has not improved for
`plateau_patience` consecutive post-warm-up epochs; training stops at the
`max_decays`-th decay. The stagnation metric is held-out accuracy when a
test split exists, otherwise the (negated) training loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape, Tensor
from .config import TrainConfig
from .data import SkeletonSequence, augment, write_table
from .errors import ConfigError, DataError, UsageError
from .model import HANModel, forward, probabilities
from .rng import Rng


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Batch mean of -log softmax(logits[b])[labels[b]], computed through log-sum-exp."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[:1] or labels.size == 0 or labels.dtype.kind not in "iu":
        raise UsageError(f"cross_entropy needs (B, C) logits and B int labels, got {logits.shape}, {labels}")
    b, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise UsageError(f"labels {labels.tolist()} out of range for {c} classes")
    rows = np.arange(b)
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(z - m), axis=1, keepdims=True))
    out = Tensor(np.asarray(np.mean(lse[:, 0] - z[rows, labels]), dtype=z.dtype))
    sm = np.exp(z - lse)

    def bwd(g):
        grad = sm.copy()
        grad[rows, labels] -= 1.0
        return (g * grad / b,)

    return ad.record_op("cross_entropy", (logits,), out, bwd)


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam moment decay rates and denominator guard


@dataclass
class AdamState:
    """First/second moment buffers aligned with a parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @staticmethod
    def for_params(params: list[Tensor]) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params: list[Tensor], grads: list[np.ndarray], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on the parameter data."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise UsageError("params, grads, and optimizer state must have the same length")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise UsageError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class ScheduleState:
    """Warm-up ramp plus plateau-decay bookkeeping, advanced once per epoch."""

    config: TrainConfig
    lr: float = field(init=False)
    best: float = field(default=-math.inf, init=False)
    stale: int = field(default=0, init=False)
    decays: int = field(default=0, init=False)
    decay_epochs: list[int] = field(default_factory=list, init=False)

    def __post_init__(self):
        self.lr = self.config.lr_init

    def lr_for_epoch(self, epoch: int) -> float:
        cfg = self.config
        if epoch < cfg.warmup_epochs:
            return cfg.lr_init * (epoch + 1) / cfg.warmup_epochs
        return self.lr

    def observe(self, epoch: int, metric: float) -> bool:
        """Record the epoch-end metric; returns True when training must stop.

        Staleness only counts epochs after the warm-up, so with patience p
        the first decay can happen at the end of epoch warmup + p - 1
        (the (warmup+p)-th epoch) at the earliest.
        """
        if metric > self.best:
            self.best = metric
            self.stale = 0
        elif epoch >= self.config.warmup_epochs:
            self.stale += 1
        if epoch >= self.config.warmup_epochs and self.stale >= self.config.plateau_patience:
            self.decays += 1
            self.decay_epochs.append(epoch)
            self.lr = self.lr / self.config.decay_factor
            self.stale = 0
        return self.decays >= self.config.max_decays


@dataclass
class EvalReport:
    accuracy: float  # nan when some sequence's probabilities are not finite
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # (C, C) counts, rows = true class
    first_non_finite: int | None = None  # index of the first sequence whose forward overflowed


def metrics_from_pairs(true_labels, pred_labels, class_count: int) -> EvalReport:
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    for t, p in zip(true_labels, pred_labels):
        confusion[t, p] += 1
    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total) if total else 0.0
    row_sums = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion), row_sums, out=np.zeros(class_count, dtype=np.float64), where=row_sums > 0
    )
    return EvalReport(accuracy=accuracy, per_class_accuracy=per_class, confusion=confusion)


def _check_labels(sequences: list[SkeletonSequence], classes: int, split: str = "") -> None:
    """A DataError naming the first sequence, within `split` when given, whose label is not one of `classes`."""
    for i, seq in enumerate(sequences):
        if not 0 <= seq.label < classes:
            raise DataError(f"{split}sequence {i} has label {seq.label}, outside the model's {classes} classes")


def evaluate(model: HANModel, sequences: list[SkeletonSequence]) -> EvalReport:
    """Deterministic eval-mode accuracy and confusion matrix over a split.

    A sequence whose forward overflows still fills a confusion-matrix row,
    but it is named in `first_non_finite` and the accuracy is nan: never a
    silent class-0 score. A label outside the model's classes is a DataError.
    """
    classes = model.config.class_count
    _check_labels(sequences, classes)
    pred, bad = [], None
    if sequences:
        probs = probabilities(sequences, model)
        finite = np.isfinite(probs).all(axis=1)
        bad = None if finite.all() else int(np.argmin(finite))
        pred = np.argmax(probs, axis=1)
    report = metrics_from_pairs([seq.label for seq in sequences], pred, classes)
    return report if bad is None else replace(report, accuracy=math.nan, first_non_finite=bad)


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float  # nan when there is no held-out split
    decays: int


@dataclass
class TrainResult:
    model: HANModel
    epochs: list[EpochLog]
    final_train_acc: float
    final_val_acc: float  # the last epoch's val_acc: its pass saw the final weights


def train_loop(
    train_seqs: list[SkeletonSequence],
    val_seqs: list[SkeletonSequence],
    model: HANModel,
    config: TrainConfig,
) -> TrainResult:
    """Run the full schedule on `train_seqs`; `val_seqs`, when given, is the plateau metric's split."""
    if not train_seqs:
        raise UsageError("training split is empty")
    for split, seqs in (("training ", train_seqs), ("validation ", val_seqs)):  # before the first forward
        _check_labels(seqs, model.config.class_count, split)
    named = model.parameters()
    params = [t for _, t in named]
    adam = AdamState.for_params(params)
    sched = ScheduleState(config)
    root = Rng(config.seed)
    logs: list[EpochLog] = []

    epoch = 0
    while True:
        lr = sched.lr_for_epoch(epoch)
        order = root.stream(f"shuffle/{epoch}").permutation(len(train_seqs))
        loss_sum = 0.0
        correct = 0
        for start in range(0, len(order), config.batch_size):
            batch = [int(gi) for gi in order[start:start + config.batch_size]]
            labels = np.array([train_seqs[gi].label for gi in batch])
            drop_rngs = [root.stream(f"dropout/{epoch}/{gi}") for gi in batch]
            # a diverging run overflows here; the loss check and the epoch-end parameter check
            # report it. The augmented sequences live only as forward's argument, so backward
            # runs without them
            with np.errstate(over="ignore", invalid="ignore"):
                with GradientTape() as tape:
                    logits = forward([train_seqs[gi] if config.augmentation is None else
                                      augment(train_seqs[gi], config.augmentation,
                                              root.stream(f"augment/{epoch}/{gi}"))
                                      for gi in batch], model, training=True, rng=drop_rngs)
                    batch_loss = cross_entropy(logits, labels)
                loss = batch_loss.item()
                if not math.isfinite(loss):
                    raise ConfigError(f"loss is {loss} at epoch {epoch}, batch {start // config.batch_size} "
                                      f"with lr {lr:.8g}; lower lr_init")
                correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
                # bound until the next batch, past tape.reset(): freed before the tape's activations,
                # the gradients let glibc trim the heap top, and every step faults its pages back in
                grads = ad.backward(batch_loss, tape, params)
                adam_step(params, grads, adam, lr)
            tape.reset()
            loss_sum += loss * len(batch)

        for name, p in named:  # the epoch's last Adam step can diverge after its loss was checked
            if not np.isfinite(p.data).all():
                raise ConfigError(f"parameter {name} is not finite after epoch {epoch} with lr {lr:.8g}; "
                                  f"lower lr_init")
        train_loss = loss_sum / len(train_seqs)
        train_acc = correct / len(train_seqs)
        if val_seqs:
            val_acc = evaluate(model, val_seqs).accuracy  # nan on an overflow; the next loss check reports it
            metric = val_acc
        else:
            val_acc = math.nan
            metric = -train_loss
        stop = sched.observe(epoch, metric)
        logs.append(EpochLog(epoch=epoch, lr=lr, train_loss=train_loss,
                             train_acc=train_acc, val_acc=val_acc, decays=sched.decays))
        epoch += 1
        if stop or (config.max_epochs is not None and epoch >= config.max_epochs):
            break

    final_train = evaluate(model, train_seqs)
    if final_train.first_non_finite is not None:  # the last epoch's steps overflow the forward
        raise ConfigError(f"the forward of training sequence {final_train.first_non_finite} overflows after "
                          f"epoch {epoch - 1} with lr {lr:.8g}; lower lr_init")
    return TrainResult(model=model, epochs=logs, final_train_acc=final_train.accuracy,
                       final_val_acc=logs[-1].val_acc)


def write_training_log(path: str, result: TrainResult) -> None:
    """Text log of one run, written fresh: one epoch per line, then a final summary line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,lr,train_loss,val_acc,decays\n")
        for log in result.epochs:
            fh.write(f"{log.epoch},{log.lr:.8g},{log.train_loss:.8g},{log.val_acc:.8g},{log.decays}\n")
        fh.write(f"final,train_acc={result.final_train_acc:.8g},val_acc={result.final_val_acc:.8g}\n")


def write_confusion_csv(path: str, report: EvalReport) -> None:
    """Confusion counts as CSV with a header row of class labels."""
    header = ",".join(map(str, range(report.confusion.shape[0])))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        write_table(fh, report.confusion, fmt="%d", delimiter=",")
