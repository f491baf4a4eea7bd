import numpy as np
import pytest

from han.attention import AttentionConfig
from han.data import FPHA21
from han.model import HANConfig, HANModel
from han.profile import attention_invocation_flops, cost_report, count_flops, count_params

from conftest import MIXED_PARTITION, TOY_PARTITION, tiny_config


def paper_config(**kw):
    return HANConfig(**kw)


class TestParamCount:
    def test_defaults_match_shape_arithmetic(self):
        # 4 blocks of 3*(256*128) + 128*256 + 128, embedder, 14-class head
        block = 3 * (256 * 128) + 128 * 256 + 128
        want = 4 * block + (3 * 128 + 128) + (128 * 14 + 14)
        assert block == 131_200
        assert count_params(paper_config()) == want == 527_118

    def test_defaults_match_instantiated_registry(self):
        config = paper_config()
        model = HANModel(config, seed=0)
        assert count_params(config) == model.param_count()

    def test_rounds_to_half_million_scale(self):
        assert round(count_params(paper_config()) / 1e6, 2) == 0.53

    def test_unsharing_j_att_adds_five_blocks(self):
        base = count_params(paper_config())
        unshared = count_params(paper_config(share_j_att=False))
        assert unshared - base == 5 * 131_200

    def test_unsharing_t_att_adds_six_blocks(self):
        base = count_params(paper_config())
        unshared = count_params(paper_config(share_t_att=False))
        assert unshared - base == 6 * 131_200

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_registry_on_random_small_configs(self, seed):
        rs = np.random.RandomState(seed)
        d_head = int(rs.randint(1, 6))
        config = HANConfig(
            attention=AttentionConfig(
                d_model=int(rs.randint(2, 12)),
                n_heads=int(rs.randint(1, 4)),
                d_head=d_head,
                dropout_rate=0.0,
            ),
            frames=int(rs.randint(1, 6)),
            class_count=int(rs.randint(2, 9)),
            partition=TOY_PARTITION if seed % 2 else MIXED_PARTITION,
            share_j_att=bool(rs.randint(2)),
            share_t_att=bool(rs.randint(2)),
        )
        model = HANModel(config, seed=seed)
        assert count_params(config) == model.param_count()


class TestFlopCount:
    def test_single_invocation_example(self):
        # N=4 at defaults: 3*4*128*256 + 2*16*256 + 4*256*128
        got = attention_invocation_flops(4, paper_config())
        assert got == 3 * 4 * 128 * 256 + 2 * 16 * 256 + 4 * 256 * 128 == 532_480

    def test_total_within_reported_band(self):
        total = count_flops(paper_config())
        assert 34_000_000 <= total <= 46_000_000

    def test_minor_terms_are_small(self):
        report = cost_report(paper_config())
        elementwise = next(r for r in report.rows if r.module == "elementwise")
        assert elementwise.flops / report.flop_total < 0.02

    def test_doubling_frames_scales_temporal_terms(self):
        base = paper_config()
        doubled = paper_config(frames=16)
        # recompute the temporal site analytically at both frame counts
        for config, t in ((base, 8), (doubled, 16)):
            report = cost_report(config)
            t_flops = next(r for r in report.rows if r.module == "t_att").flops
            assert t_flops == 7 * attention_invocation_flops(t, config)
        t8 = next(r for r in cost_report(base).rows if r.module == "t_att").flops
        t16 = next(r for r in cost_report(doubled).rows if r.module == "t_att").flops
        # 3*N*d*hw and N*hw*d terms are linear in N, 2*N^2*hw is quadratic
        linear = 4 * 128 * 256
        quadratic = 2 * 256
        assert t16 == 7 * (16 * linear + 16 * 16 * quadratic)
        assert t16 > 2 * t8

    @pytest.mark.parametrize("field,bigger", [
        ("d_model", dict(attention=AttentionConfig(d_model=256, n_heads=8, d_head=32))),
        ("n_heads", dict(attention=AttentionConfig(d_model=128, n_heads=16, d_head=32))),
        ("d_head", dict(attention=AttentionConfig(d_model=128, n_heads=8, d_head=64))),
        ("frames", dict(frames=16)),
    ])
    def test_monotone_in_each_dimension(self, field, bigger):
        assert count_flops(HANConfig(**bigger)) > count_flops(paper_config())

    def test_monotone_in_joint_count(self):
        assert count_flops(paper_config()) > count_flops(HANConfig(partition=FPHA21))


class TestReport:
    @pytest.mark.parametrize("config, params, flops, elementwise", [
        (HANConfig(), 527_118, 38_712_718, 279_694),
        (HANConfig(share_j_att=False, share_t_att=False), 1_970_318, 38_712_718, 279_694),
        (HANConfig(frames=16, pe_t=False), 527_118, 76_919_182, 538_766),
        (HANConfig(partition=FPHA21), 527_118, 37_640_590, 271_502),
        (HANConfig(attention=AttentionConfig(n_heads=4, d_head=64), pe_j=False, pe_fusion=False),
         527_118, 38_689_294, 256_270),
    ], ids=["default", "unshared", "frames16-no-pe-t", "fpha21", "4x64-no-pe-j-fusion"])
    def test_pinned_totals(self, config, params, flops, elementwise):
        report = cost_report(config)
        rows = {r.module: r.flops for r in report.rows}
        assert (report.param_total, report.flop_total, rows["elementwise"]) == (params, flops, elementwise)

    def test_rows_sum_to_totals(self):
        report = cost_report(paper_config())
        assert sum(r.params for r in report.rows) == report.param_total
        assert sum(r.flops for r in report.rows) == report.flop_total

    def test_csv_and_text_forms(self):
        report = cost_report(tiny_config())
        csv = report.csv()
        assert csv.startswith("module,params,flops\n")
        assert csv.strip().split("\n")[-1].startswith("total,")
        text = report.text()
        assert "total" in text and "j_att" in text
