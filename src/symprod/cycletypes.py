"""Empty: the cycle types of S_n, the class-by-class picture that
orbifold._sector_sum is checked against, live in the tests
(tests/conftest.py).  perfbench/tracer.py imports this module by name, so
it stays until the tracer drops its cycletypes target.
"""
