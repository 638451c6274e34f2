"""ARIES restart and media recovery."""

from repro.recovery.analysis import AnalysisResult, run_analysis
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.instant import RecoveryGovernor, run_instant_restart
from repro.recovery.media import ImageCopy, recover_page, take_image_copy
from repro.recovery.redo import RedoResult, run_redo
from repro.recovery.restart import RestartReport
from repro.recovery.undo import UndoResult, run_undo

__all__ = [
    "AnalysisResult",
    "ImageCopy",
    "RecoveryGovernor",
    "RedoResult",
    "RestartReport",
    "UndoResult",
    "recover_page",
    "run_analysis",
    "run_instant_restart",
    "run_redo",
    "run_undo",
    "take_checkpoint",
    "take_image_copy",
]
