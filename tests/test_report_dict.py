import json
from dataclasses import fields

import numpy as np

from gweave import (
    DEFAULT_TOL,
    GFrame,
    GFrameFamily,
    Partition,
    certify_woven,
    minimal_k,
    removal_bound,
    report_dict,
    scaled_dual_weave,
)

from _support import onb_frame, random_frame, swapped_onb_family


def _names(report, skip=()):
    return {f.name for f in fields(report)} - set(skip)


class TestReportDict:
    def test_fields_become_keys_and_partitions_label_lists(self):
        rep = certify_woven(swapped_onb_family())
        out = report_dict(rep)
        assert set(out) == _names(rep)
        assert out["witness_lower"] == list(rep.witness_lower.labels)
        assert out["witness_upper"] == list(rep.witness_upper.labels)
        assert out["universal_lower"] == rep.universal_lower
        assert json.loads(json.dumps(out)) == out

    def test_tuples_become_lists_and_none_stays(self):
        f = onb_frame(2)
        cert = minimal_k(GFrameFamily((f, f)))
        out = report_dict(cert)
        assert out["member_lowers"] == list(cert.member_lowers)
        assert out["worst_subset"] is None and out["worst_pair"] is None

    def test_frame_fields_left_out_whether_set_or_none(self):
        frame = random_frame(3, (1, 2, 1), seed=5, lo=1.0, hi=1.8)
        valid = scaled_dual_weave(frame)
        assert valid.scaled_dual is not None
        out = report_dict(valid)
        assert set(out) == _names(valid, ["scaled_dual"])
        assert out["op_report"] == report_dict(valid.op_report)
        assert set(out["op_report"]) == _names(valid.op_report, ["family"])

        wide = GFrame(2, (np.array([[1.0, 0.0]]), np.array([[0.0, np.sqrt(2.5)]])))
        failing = scaled_dual_weave(wide)
        assert failing.scaled_dual is None
        assert set(report_dict(failing)) == _names(failing, ["scaled_dual"])

        removal = removal_bound(swapped_onb_family(3), [1], universal=(1.0, 2.0))
        assert set(report_dict(removal)) == _names(removal, ["restricted"])
        assert report_dict(removal)["dropped"] == [1]

    def test_complex_arrays_become_re_im_pairs(self):
        z = np.array([1.5 - 2.0j, -0.25 + 0.0j])
        assert report_dict(z) == [[1.5, -2.0], [-0.25, 0.0]]
        assert report_dict((z[:1],)) == [[[1.5, -2.0]]]

    def test_plain_values_and_settings(self):
        assert report_dict(Partition((2, 1))) == [2, 1]
        assert report_dict(None) is None
        assert report_dict("woven") == "woven"
        assert report_dict(DEFAULT_TOL) == {
            "rank_rtol": DEFAULT_TOL.rank_rtol,
            "frame_rtol": DEFAULT_TOL.frame_rtol,
            "eq_atol": DEFAULT_TOL.eq_atol,
        }
