"""Tests of the benchmark's own oracle and bookkeeping.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402
from workloads import (LocatePt2, pt_det1, pt_det2, pt_det3,  # noqa: E402
                       pt_trace_t2)


def test_pt_closed_forms_n1_at_lambda_4():
    assert abs(pt_det1(1, 4.0) - 1.0 / 3.0) < 1e-15
    assert abs(pt_det2(1, 4.0) - math.e / 3.0) < 1e-15


def test_pt_trace_t2_is_even_in_conjugation():
    lam = 6.0 + 1.5j
    assert abs(pt_trace_t2(2, lam.conjugate())
               - pt_trace_t2(2, lam).conjugate()) < 1e-14
    assert abs(pt_det3(2, lam) / pt_det2(2, lam)
               - complex(math.e) ** (0.5 * pt_trace_t2(2, lam))) < 1e-12


def test_locate_rectangles_keep_one_root_each():
    for seed in range(50):
        for (lo, hi), root in zip(LocatePt2(seed).rectangles, (1.0, 4.0)):
            assert lo.real + 0.3 < root < hi.real - 0.3
            assert lo.imag < -0.3 and hi.imag > 0.3


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)


def test_self_time_subtracts_the_union_of_children():
    # det span 0..10 with children 1..4 and 3..6 (overlapping) and 8..9
    spans = [(1, None, 1, "fredholm.det", 0.0, 10.0),
             (2, 1, 1, "fredholm.lu", 1.0, 4.0),
             (3, 1, 2, "fredholm.trace_power", 3.0, 6.0),
             (4, 1, 1, "fredholm.lu", 8.0, 9.0)]
    dump = {"spans": spans, "counters": {}, "matrix_bytes": 2 ** 20}
    m = layer_metrics([dump])
    assert m["fredholm.det_self_s"] == 10.0 - 5.0 - 1.0
    assert m["fredholm.lu_calls"] == 2 and m["fredholm.lu_s"] == 4.0
    assert m["fredholm.matrix_mb"] == 1.0
