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
from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, dot
from .extraction import TrainingTriple
from .models import Scorer
from .text import Tokens, normalize

MARGIN = 1.0  # fixed hinge margin
EVAL_CHUNK = 128  # triples per score_batch call when evaluating


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


# a setting's declared bound, ``field(metadata={op: bound})``: op -> (symbol, test)
_BOUNDS = {"ge": (">=", lambda v, b: v >= b), "gt": (">", lambda v, b: v > b),
           "le": ("<=", lambda v, b: v <= b), "lt": ("<", lambda v, b: v < b)}


@dataclass
class TrainConfig:
    lr: float = field(default=1e-4, metadata={"gt": 0})
    batch_size: int = field(default=512, metadata={"ge": 1})
    max_epochs: int = field(default=20, metadata={"ge": 0})
    patience: int = field(default=2, metadata={"ge": 1})  # stalled validation epochs before decay
    lr_decay: float = field(default=0.1, metadata={"gt": 0, "lt": 1})
    min_lr: float = field(default=1e-6, metadata={"gt": 0})
    frozen: bool = False       # exclude the embedding table from updates
    seed: int = field(default=0, metadata={"ge": 0})

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for op, bound in f.metadata.items():
                symbol, holds = _BOUNDS[op]
                if not holds(value, bound):
                    raise ValueError(f"{f.name} must be {symbol} {bound}, got {value}")


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


def _scored_chunks(scorer: Scorer, triples: list[TrainingTriple],
                   doc_tokens: dict[str, Tokens], q_cache: dict[str, Tokens], size: int):
    """Score ``triples`` chunk by chunk.

    Yields ``(scores, backward)`` per chunk: the chunk's scores as floats,
    relevant then irrelevant, triple by triple, and ``backward(seed)``,
    which backpropagates one seed entry per score.  A scorer with
    ``score_batch`` scores up to ``size`` triples on one tape; any other
    scores one triple at a time, so at most one triple's per-pair graphs
    are alive.
    """
    batched = hasattr(scorer, "score_batch")
    step = size if batched else 1
    for lo in range(0, len(triples), step):
        pairs = [(q_cache[t.query], doc_tokens[sku])
                 for t in triples[lo:lo + step] for sku in (t.rel_sku, t.irrel_sku)]
        if batched:
            out = scorer.score_batch(pairs)
            yield out.data.tolist(), lambda seed, out=out: dot(out, Tensor(seed)).backward()
        else:
            outs = [scorer.score_graph(q, d) for q, d in pairs]

            def backward(seed, outs=outs):
                # irrelevant then relevant: the order per-pair gradients have
                # always been summed in, so these models train to the same bytes
                for f, s in reversed(list(zip(outs, seed))):
                    if s:
                        f.backward(s)

            yield [f.data.item() for f in outs], backward


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
    # parameters off the tape while scoring: no gradient is wanted, and each
    # intermediate array is freed once the next op has read it
    on_tape = [p for p in scorer.parameters() if p.requires_grad]
    for p in on_tape:
        p.requires_grad = False
    try:
        for scores, _ in _scored_chunks(scorer, triples, doc_tokens, q_cache, EVAL_CHUNK):
            for f_rel, f_irr in zip(scores[::2], scores[1::2]):
                loss += margin_loss(f_rel, f_irr)
                # not-greater rather than less-equal: NaN scores count as errors too
                errors += not (f_rel > f_irr)
    finally:
        for p in on_tape:
            p.requires_grad = True
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
            batch = [train_triples[k] for k in order[lo:lo + config.batch_size]]
            inv = 1.0 / len(batch)
            optimizer.zero_grad()
            batch_loss = 0.0
            for scores, backward in _scored_chunks(scorer, batch, doc_tokens, q_train, len(batch)):
                seed = np.zeros(len(scores))
                for i in range(0, len(scores), 2):
                    loss = margin_loss(scores[i], scores[i + 1])
                    if loss > 0.0:
                        # d(loss)/d(f_rel) = -1, d(loss)/d(f_irr) = 1, / batch
                        seed[i:i + 2] = (-inv, inv)
                    batch_loss += loss
                if seed.any():
                    backward(seed)
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
