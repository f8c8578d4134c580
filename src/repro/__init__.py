"""repro — a Python reproduction of PADS (Fisher & Gruber, PLDI 2005).

PADS is a declarative data-description language for ad hoc data.  This
package reimplements the full system: the description language, a parsing
runtime with masks and parse descriptors, a Python code generator, and
the generated-tool suite (accumulators, formatting, XML conversion, an
XQuery-subset engine over the generated data API, a Cobol copybook
translator and a conforming-data generator).

Quickstart::

    import repro

    clf = repro.compile_description(repro.gallery.CLF)
    for rep, pd in clf.records(data, "entry_t"):
        if pd.nerr == 0:
            print(rep.client.value)

    # accumulate, count, stream, batch, fan out or checkpoint: one call
    result = repro.execute(clf, repro.Run("accum", data, "entry_t"))
"""

from .core import (
    CompiledDescription,
    DescriptionError,
    ErrCode,
    ErrorTally,
    FixedWidthRecords,
    LengthPrefixedRecords,
    Loc,
    Mask,
    MaskFlag,
    NewlineRecords,
    NoRecords,
    P_Check,
    P_CheckAndSet,
    P_Ignore,
    P_SemCheck,
    P_Set,
    P_SynCheck,
    PadsError,
    Pd,
    Pstate,
    Rec,
    Source,
    UnionVal,
    DateVal,
    EnumVal,
    compile_description,
    compile_file,
    mask_init,
)

from . import gallery  # noqa: E402  (the paper's descriptions, ready to use)
from . import parallel  # noqa: E402  (chunked map-reduce over records)
from .run import Run, RunResult, execute  # noqa: E402  (one execution path)

__version__ = "1.0.0"

__all__ = [
    "CompiledDescription", "DescriptionError", "ErrCode", "ErrorTally",
    "FixedWidthRecords", "LengthPrefixedRecords", "Loc", "Mask", "MaskFlag",
    "NewlineRecords", "NoRecords", "P_Check", "P_CheckAndSet", "P_Ignore",
    "P_SemCheck", "P_Set", "P_SynCheck", "PadsError", "Pd", "Pstate",
    "Rec", "Source", "UnionVal", "DateVal", "EnumVal",
    "compile_description", "compile_file", "mask_init", "parallel",
    "Run", "RunResult", "execute", "__version__",
]
