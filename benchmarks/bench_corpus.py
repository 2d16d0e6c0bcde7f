"""Script corpus: dedup, memoized-analysis speedup, and memory.

The scan's old data path kept one raw copy of every collected script
per occurrence (each site's evidence carried full sources) and re-ran
the regex battery on every occurrence for every (re)classification.
The content-addressed corpus stores each distinct body once
(zlib-compressed) and memoizes the static-analysis verdict per
``(hash, pattern_version, preprocess)``.

Two claims are pinned here:

* repeat classification over a realistic high-duplication workload is
  at least 2x faster with a warm analysis cache than with the cache
  disabled (every occurrence decompressed and re-scanned);
* the bytes resident for script storage drop by an order of magnitude
  versus per-occurrence raw copies.
"""

import gc
import time

from conftest import report

from repro.core.scan.classify import VisitEvidence
from repro.core.scan.static_analysis import scan_script
from repro.corpus import ScriptCorpus, script_hash

#: Distinct script bodies in the workload.
UNIQUE_SCRIPTS = 40
#: Sites referencing them; each site includes SCRIPTS_PER_SITE bodies.
SITES = 400
SCRIPTS_PER_SITE = 8
SPEEDUP_FLOOR = 2.0

_FILLER = ("function u%d(a,b){var c=a+b;for(var i=0;i<8;i++)"
           "{c+=Math.sqrt(c+i)*1.0001;}return c;}\n")


def _unique_sources():
    """Deterministic mix: detectors, obfuscated variants, benign libs."""
    sources = []
    for index in range(UNIQUE_SCRIPTS):
        pad = "".join(_FILLER % (index * 100 + line)
                      for line in range(60 + index))
        if index % 5 == 0:
            head = "if (navigator.webdriver) { beacon('%d'); }\n" % index
        elif index % 5 == 1:
            head = ('var p = navigator["\\x77\\x65\\x62\\x64\\x72\\x69'
                    '\\x76\\x65\\x72"]; // variant %d\n' % index)
        elif index % 5 == 2:
            head = "/* bundle %d */ window.instrumentFingerprintingApis" \
                   " && probe();\n" % index
        else:
            head = "// benign bundle %d\n" % index
        sources.append(head + pad)
    return sources


def _occurrences():
    """(site, script-index) pairs, head-heavy like real inclusion."""
    out = []
    for site in range(SITES):
        out.append((site, 0))  # the one shared library everyone loads
        for slot in range(1, SCRIPTS_PER_SITE):
            out.append((site, (site * 3 + slot * 7) % UNIQUE_SCRIPTS))
    return out


def _sweep(corpus, digests, occurrences):
    matched = 0
    for _, index in occurrences:
        matched += len(corpus.scan(digests[index], preprocess=True).matched)
        matched += len(corpus.scan(digests[index],
                                   preprocess=False).matched)
    return matched


def measure_corpus(rounds=3):
    sources = _unique_sources()
    occurrences = _occurrences()

    cached = ScriptCorpus()
    uncached = ScriptCorpus(cache_enabled=False)
    digests = [script_hash(source) for source in sources]
    for corpus in (cached, uncached):
        for site in range(SITES):
            batch = corpus.site_batch(f"site{site}.test")
            evidence = VisitEvidence(page_url=f"https://site{site}.test/")
            for occ_site, index in occurrences[
                    site * SCRIPTS_PER_SITE:(site + 1) * SCRIPTS_PER_SITE]:
                assert occ_site == site
                evidence.scripts.append((f"https://cdn.test/{index}.js",
                                         batch.add(sources[index])))
            batch.flush_visit()
            batch.commit([evidence])

    baseline = _sweep(cached, digests, occurrences)  # warm the cache
    best = {"warm": float("inf"), "disabled": float("inf")}
    for _ in range(rounds):
        for mode, corpus in (("disabled", uncached), ("warm", cached)):
            gc.collect()
            start = time.perf_counter()
            matched = _sweep(corpus, digests, occurrences)
            best[mode] = min(best[mode], time.perf_counter() - start)
            assert matched == baseline  # cache must not change verdicts

    raw_occurrence_bytes = sum(
        len(sources[index].encode()) for _, index in occurrences)
    stats = cached.stats()
    direct = len(scan_script(sources[0]).matched)
    assert direct == len(cached.scan(digests[0]).matched)
    cached.close()
    uncached.close()
    return {
        "best": best,
        "speedup": best["disabled"] / best["warm"],
        "scans": len(occurrences) * 2,
        "raw_occurrence_bytes": raw_occurrence_bytes,
        "unique_raw_bytes": sum(len(s.encode()) for s in sources),
        "corpus_bytes": stats["corpus_bytes"],
        "memory_reduction": raw_occurrence_bytes / stats["corpus_bytes"],
        "cache_hit_rate": stats["cache_hit_rate"],
    }


def test_benchmark_corpus(benchmark):
    result = benchmark.pedantic(lambda: measure_corpus(rounds=3),
                                rounds=1, iterations=1)
    best = result["best"]
    lines = [
        f"({SITES} sites x {SCRIPTS_PER_SITE} scripts/site over "
        f"{UNIQUE_SCRIPTS} distinct bodies; {result['scans']} static",
        " scans per sweep, both preprocess settings; best of 3.)",
        "",
        "| metric | value |",
        "|---|---|",
        f"| sweep, cache disabled | {best['disabled']:.3f} s |",
        f"| sweep, warm cache | {best['warm']:.3f} s |",
        f"| speedup | {result['speedup']:.1f}x |",
        f"| cache hit rate | {result['cache_hit_rate']:.3f} |",
        f"| raw bytes (one copy per occurrence, old data path) "
        f"| {result['raw_occurrence_bytes']:,} |",
        f"| raw bytes (distinct bodies) "
        f"| {result['unique_raw_bytes']:,} |",
        f"| corpus bytes (compressed, content-addressed) "
        f"| {result['corpus_bytes']:,} |",
        f"| resident-bytes reduction | "
        f"{result['memory_reduction']:.1f}x |",
    ]
    report("corpus", "Script corpus - dedup and memoized analysis", lines)

    assert result["speedup"] >= SPEEDUP_FLOOR, result
    assert result["memory_reduction"] > 10.0, result
