"""Closed-form parameter and FLOP accounting for one configuration.

FLOPs follow the multiply-accumulate convention: one MAC = 1 FLOP, for a
single forward pass of one sequence at the configured frame count.
Elementwise work (softmax, normalization, activations, residual adds,
position embeddings, biases) is tallied at N*d per occurrence in a separate
breakdown row; it is under 2% of the total. The site rows read the model's
site table (`SITES`, `site_calls`), so they follow its geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import SITES, HANConfig, block_names, site_calls


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


def cost_report(config: HANConfig) -> CostReport:
    att = config.attention
    d = att.d_model
    j = config.joint_count
    t = config.frames
    calls, blocks = site_calls(config), block_names(config)
    rows = [CostRow("joint_embed", d * 3 + d, j * t * 3 * d)]
    # elementwise: the embed and head bias adds, then per call six passes plus
    # the position add where the site's flag is on
    elementwise = t * j * d + config.class_count
    for site, (prefix, pe_flag, _) in SITES.items():
        flops = sum(g * attention_invocation_flops(n, config) for g, n in calls[site])
        rows.append(CostRow(prefix, att.param_count() * len(blocks[prefix]), flops))
        elementwise += sum((6 + getattr(config, pe_flag)) * g * n * d for g, n in calls[site])
    rows += [CostRow("classifier", config.class_count * d + config.class_count, config.class_count * d),
             CostRow("elementwise", 0, elementwise)]
    return CostReport(rows=tuple(rows))


def count_params(config: HANConfig) -> int:
    """Total learnable scalars, from shapes alone."""
    return cost_report(config).param_total


def count_flops(config: HANConfig) -> int:
    """Total forward MACs for one sequence, from shapes alone."""
    return cost_report(config).flop_total
