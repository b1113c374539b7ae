"""Reporting and figure-series assembly for the evaluation harness.

* :mod:`repro.analysis.tables` renders Table 1 (testbed inventory) and
  Table 2 (anomalies with trigger conditions) in the paper's shape;
* :mod:`repro.analysis.figures` builds the data series behind Figures
  4–6 (time-to-find curves, ablations, counter traces);
* :mod:`repro.analysis.render` pretty-prints series and tables as text.
"""

from repro import lazy_attribute

#: Public name -> the submodule defining it, imported on first use.
_SUBMODULES = {
    "CounterTrace": "figures",
    "TimeToFindSeries": "figures",
    "counter_trace": "figures",
    "time_to_find_series": "figures",
    "SensitivityAnalyzer": "sensitivity",
    "SensitivityProfile": "sensitivity",
    "load_anomalies": "serialize",
    "save_report": "serialize",
    "table1_rows": "tables",
    "table2_rows": "tables",
    "render_table": "render",
}

__all__ = list(_SUBMODULES)
__getattr__ = lazy_attribute(__name__, _SUBMODULES)
