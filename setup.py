from setuptools import Extension, setup

setup(
    ext_modules=[
        # Optional C kernel for the similarity-flooding sweeps.
        # `optional=True`: a missing compiler degrades the install to the
        # pure-python package instead of failing it — the engine picks
        # the C kernel when the module imports and runs the Python loops
        # otherwise (repro.harmony.flooding.default_sweep_backend).
        Extension(
            "repro.harmony._csweep",
            sources=["src/repro/harmony/_csweep.c"],
            optional=True,
        )
    ]
)
