"""Test-session setup shared by every test module."""

import contextlib
import warnings

# The hypothesis plugin imports this module to report a failing example. It imports libcst, which
# warns DeprecationWarning on import; under pyproject's filterwarnings that warning is an error,
# and it would end the run in an INTERNALERROR in place of the failure's report. Imported here
# once with the warning ignored, the module is cached and the later import does not warn. libcst
# is optional (hypothesis's codemods extra); without it the plugin skips the import as well.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
