"""Closed-form parameter and FLOP accounting for one configuration.

FLOPs follow the multiply-accumulate convention: one MAC = 1 FLOP, for a
single forward pass of one sequence at the configured frame count.
Elementwise work (softmax, normalization, activations, residual adds,
position embeddings, biases) is tallied at N*d per occurrence in a separate
breakdown row; it is under 2% of the total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import PART_COUNT
from .model import HANConfig, STREAM_COUNT


@dataclass(frozen=True)
class CostRow:
    module: str
    params: int
    flops: int


@dataclass(frozen=True)
class CostReport:
    rows: tuple[CostRow, ...]

    @property
    def param_total(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def flop_total(self) -> int:
        return sum(r.flops for r in self.rows)

    def text(self) -> str:
        width = max(len(r.module) for r in self.rows) + 2
        lines = [f"{'module':<{width}}{'params':>12}{'flops':>14}"]
        for r in self.rows:
            lines.append(f"{r.module:<{width}}{r.params:>12}{r.flops:>14}")
        lines.append(f"{'total':<{width}}{self.param_total:>12}{self.flop_total:>14}")
        return "\n".join(lines)

    def csv(self) -> str:
        lines = ["module,params,flops"]
        lines += [f"{r.module},{r.params},{r.flops}" for r in self.rows]
        lines.append(f"total,{self.param_total},{self.flop_total}")
        return "\n".join(lines) + "\n"


def attention_invocation_flops(n_tokens: int, config: HANConfig) -> int:
    """MACs for one attention-block call on N tokens.

    QKV projections + score and weighted-sum products + output projection;
    the six N*d elementwise passes are tallied in the elementwise row.
    """
    att = config.attention
    d, hw = att.d_model, att.heads_width
    return 3 * n_tokens * d * hw + 2 * n_tokens * n_tokens * hw + n_tokens * hw * d


def _invocations(config: HANConfig) -> dict[str, list[int]]:
    """Token counts of every attention call in one forward pass, per site."""
    part_sizes = [len(p) for p in config.partition.parts]
    return {
        "j_att": [n for _ in range(config.frames) for n in part_sizes],
        "f_att": [PART_COUNT] * config.frames,
        "t_att": [config.frames] * STREAM_COUNT,
        "fusion_att": [STREAM_COUNT],
    }


def cost_report(config: HANConfig) -> CostReport:
    att = config.attention
    d = att.d_model
    block = att.param_count()
    j = config.joint_count
    t = config.frames
    calls = _invocations(config)

    def site_flops(site: str) -> int:
        return sum(attention_invocation_flops(n, config) for n in calls[site])

    def site_minor(site: str) -> int:
        return sum(6 * n * d for n in calls[site])

    # elementwise: per-call passes, embed bias add, position-embedding adds
    pe_adds = 0
    if config.pe_j:
        pe_adds += t * j * d
    if config.pe_f:
        pe_adds += t * PART_COUNT * d
    if config.pe_t:
        pe_adds += STREAM_COUNT * t * d
    if config.pe_fusion:
        pe_adds += STREAM_COUNT * d
    elementwise = sum(site_minor(s) for s in calls) + t * j * d + pe_adds + config.class_count

    rows = (
        CostRow("joint_embed", d * 3 + d, j * t * 3 * d),
        CostRow("j_att", block * (1 if config.share_j_att else PART_COUNT), site_flops("j_att")),
        CostRow("f_att", block, site_flops("f_att")),
        CostRow("t_att", block * (1 if config.share_t_att else STREAM_COUNT), site_flops("t_att")),
        CostRow("fusion_att", block, site_flops("fusion_att")),
        CostRow("classifier", config.class_count * d + config.class_count, config.class_count * d),
        CostRow("elementwise", 0, elementwise),
    )
    return CostReport(rows=rows)


def count_params(config: HANConfig) -> int:
    """Total learnable scalars, from shapes alone."""
    return cost_report(config).param_total


def count_flops(config: HANConfig) -> int:
    """Total forward MACs for one sequence, from shapes alone."""
    return cost_report(config).flop_total
