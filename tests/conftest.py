import tempfile

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis (the `test` extra)
    settings = None

if settings is not None:
    # Deterministic property tests that keep no example database.  Hypothesis
    # still caches the constants it mines from source files; that cache goes
    # to a temporary directory removed at exit, so a test run writes no
    # .hypothesis/.
    from hypothesis.configuration import set_hypothesis_home_dir

    settings.register_profile("deterministic", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("deterministic")
    _HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_HOME.name)
