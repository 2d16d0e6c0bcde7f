"""The Tranco-scale bot-detector scan (paper Sec. 4)."""

from repro.core.scan.static_analysis import (
    PATTERN_SET_VERSION,
    PATTERNS,
    PatternHit,
    deobfuscate,
    scan_script,
)
from repro.core.scan.dynamic_analysis import ScanExtension
from repro.core.scan.classify import SiteClassification, classify_site
from repro.core.scan.pipeline import ScanBroker, ScanDataset, ScanPipeline

__all__ = [
    "PATTERN_SET_VERSION",
    "PATTERNS",
    "PatternHit",
    "deobfuscate",
    "scan_script",
    "ScanExtension",
    "SiteClassification",
    "classify_site",
    "ScanBroker",
    "ScanPipeline",
    "ScanDataset",
]
