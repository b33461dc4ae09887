from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# the long run of tests/test_fuzz.py: pytest tests/test_fuzz.py --hypothesis-profile=fuzz
settings.register_profile("fuzz", settings.get_profile("suite"), max_examples=2000)
settings.load_profile("suite")
