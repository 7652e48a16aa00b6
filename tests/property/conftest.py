"""Run the whole property suite under the stream-invariant sanitizer.

The hypothesis suites are exactly where a broken invariant would hide —
random workloads, random windows, random migration times — so every test
in this package runs with the sanitizer installed.  The fixture is
package-scoped: hypothesis forbids per-example (function-scoped) fixture
work, and one process-wide installation for the suite is all that is
needed.  The gate is strict: a result delivered out of start order raises
SAN009 for every strategy (only the Parallel Track buffer flush, which
announces itself on the gate, stays tolerated), and the O(state) recount
stays on — these suites are small enough to afford it.
"""

import pytest

from repro.analysis.sanitizer import StreamSanitizer, sanitized


@pytest.fixture(autouse=True, scope="package")
def _sanitized_suite():
    with sanitized(StreamSanitizer(strict_gate=True)) as sanitizer:
        yield sanitizer
