"""Pairwise ranking trainer.

Margin loss over (query, clicked item, passed-over item) triples, Adam
updates, a reduce-on-plateau learning-rate schedule driven by validation
loss, and model selection by validation error rate.  The selected epoch
may be 0, i.e. the untrained model, which guards against runs that never
beat their own starting point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .extraction import TrainingTriple
from .models import Scorer
from .text import Tokens, normalize

MARGIN = 1.0  # fixed hinge margin


def margin_loss(f_rel: float, f_irrel: float, margin: float = MARGIN) -> float:
    """Hinge on the score gap: zero once f_rel beats f_irrel by ``margin``.

    NaN scores yield a NaN loss rather than vanishing inside max(), so a
    diverged model cannot masquerade as a perfect one.
    """
    gap = f_irrel - f_rel + margin
    if gap > 0.0 or math.isnan(gap):
        return gap
    return 0.0


class Adam:
    """Standard Adam with bias correction.  ``lr`` is a plain attribute so
    a schedule can rewrite it between steps."""

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if not params:
            raise ValueError("Adam needs at least one parameter")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self._t += 1
        c1 = 1.0 - self.beta1 ** self._t
        c2 = 1.0 - self.beta2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 512
    max_epochs: int = 20
    patience: int = 2          # epochs of stalled validation loss before decay
    lr_decay: float = 0.1
    min_lr: float = 1e-6
    frozen: bool = False       # exclude the embedding table from updates
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0 or self.min_lr <= 0 or not 0 < self.lr_decay < 1:
            raise ValueError("learning-rate settings must be positive (decay in (0,1))")
        if self.batch_size < 1 or self.max_epochs < 0 or self.patience < 1:
            raise ValueError("batch_size/max_epochs/patience out of range")


@dataclass
class EpochReport:
    epoch: int
    train_loss: float  # nan for the pre-training evaluation row
    val_loss: float
    val_error: float
    lr: float
    seconds: float = 0.0

    def line(self) -> str:
        tl = "     --" if math.isnan(self.train_loss) else f"{self.train_loss:7.4f}"
        return (f"epoch {self.epoch:2d}  train_loss {tl}  "
                f"val_loss {self.val_loss:7.4f}  val_error {self.val_error:.4f}  "
                f"lr {self.lr:.1e}")


@dataclass
class TrainResult:
    reports: list[EpochReport]
    best_epoch: int
    best_val_error: float


def _token_cache(triples: list[TrainingTriple]) -> dict[str, Tokens]:
    return {q: normalize(q) for q in {t.query for t in triples}}


def _check_skus(triples: list[TrainingTriple], doc_tokens: dict[str, Tokens]) -> None:
    missing = {s for t in triples for s in (t.rel_sku, t.irrel_sku)} - doc_tokens.keys()
    if missing:
        raise ValueError(f"doc_tokens missing {len(missing)} skus, e.g. {sorted(missing)[:3]}")


def evaluate_triples(
    scorer: Scorer,
    triples: list[TrainingTriple],
    doc_tokens: dict[str, Tokens],
    q_cache: dict[str, Tokens] | None = None,
) -> tuple[float, float]:
    """(mean margin loss, error rate).  A tie in scores counts as an error:
    the model failed to order the pair."""
    if not triples:
        raise ValueError("cannot evaluate on an empty triple list")
    _check_skus(triples, doc_tokens)
    if q_cache is None:
        q_cache = _token_cache(triples)
    loss = 0.0
    errors = 0
    for t in triples:
        q = q_cache[t.query]
        f_rel = scorer.score(q, doc_tokens[t.rel_sku])
        f_irr = scorer.score(q, doc_tokens[t.irrel_sku])
        loss += margin_loss(f_rel, f_irr)
        # not-greater rather than less-equal: NaN scores count as errors too
        errors += not (f_rel > f_irr)
    return loss / len(triples), errors / len(triples)


def train(
    scorer: Scorer,
    train_triples: list[TrainingTriple],
    val_triples: list[TrainingTriple],
    doc_tokens: dict[str, Tokens],
    config: TrainConfig | None = None,
    log=None,
) -> TrainResult:
    """Fit ``scorer`` in place and leave it holding the weights of the
    best-validation-error epoch.  ``log`` (a callable taking one string)
    receives one line per epoch."""
    if config is None:
        config = TrainConfig()
    if not train_triples or not val_triples:
        raise ValueError("need non-empty train and validation triples")
    _check_skus(train_triples, doc_tokens)  # evaluate_triples checks the validation ones
    # a frozen table leaves the tape for the run, so no gradient is computed for it
    frozen = [p for p in scorer.parameters() if config.frozen and p.name == "embedding"]
    for p in frozen:
        p.requires_grad = False
    try:
        return _fit(scorer, train_triples, val_triples, doc_tokens, config, log)
    finally:
        for p in frozen:
            p.requires_grad = True


def _fit(scorer, train_triples, val_triples, doc_tokens, config, log) -> TrainResult:
    params = scorer.trainable_parameters()
    if not params:
        raise ValueError(f"scorer '{scorer.descriptor()}' has no trainable parameters")

    optimizer = Adam(params, lr=config.lr)
    q_train = _token_cache(train_triples)
    q_val = _token_cache(val_triples)

    t0 = time.time()
    val_loss, val_error = evaluate_triples(scorer, val_triples, doc_tokens, q_val)
    reports = [EpochReport(0, float("nan"), val_loss, val_error,
                           optimizer.lr, time.time() - t0)]
    if log:
        log(reports[0].line())
    best = ([p.data.copy() for p in params], 0, val_error)
    sched_best_loss = val_loss
    stalled = 0

    n = len(train_triples)
    for epoch in range(1, config.max_epochs + 1):
        t0 = time.time()
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch)))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            inv = 1.0 / len(batch)
            optimizer.zero_grad()
            batch_loss = 0.0
            for k in batch:
                t = train_triples[k]
                q = q_train[t.query]
                f_rel = scorer.score_graph(q, doc_tokens[t.rel_sku])
                f_irr = scorer.score_graph(q, doc_tokens[t.irrel_sku])
                loss = margin_loss(f_rel.data.item(), f_irr.data.item())
                if loss > 0.0:
                    # d(loss)/d(f_irr) = 1, d(loss)/d(f_rel) = -1, / batch
                    f_irr.backward(inv)
                    f_rel.backward(-inv)
                batch_loss += loss
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"batch {lo // config.batch_size} (lr={optimizer.lr:.2e})"
                )
            optimizer.step()
            epoch_loss += batch_loss
        epoch_loss /= n

        val_loss, val_error = evaluate_triples(scorer, val_triples, doc_tokens, q_val)
        if not np.isfinite(val_loss):
            raise RuntimeError(
                f"training diverged: non-finite validation loss at epoch {epoch}"
            )
        reports.append(EpochReport(epoch, epoch_loss, val_loss, val_error,
                                   optimizer.lr, time.time() - t0))
        if log:
            log(reports[-1].line())

        if val_error < best[2]:
            best = ([p.data.copy() for p in params], epoch, val_error)

        # plateau schedule on validation loss
        if val_loss < sched_best_loss:
            sched_best_loss = val_loss
            stalled = 0
        else:
            stalled += 1
            if stalled >= config.patience:
                optimizer.lr = max(optimizer.lr * config.lr_decay, config.min_lr)
                stalled = 0

    for p, data in zip(params, best[0]):
        p.data = data.copy()
    return TrainResult(reports=reports, best_epoch=best[1], best_val_error=best[2])
