import os

from setuptools import Extension, setup

ext_modules = []
if not os.environ.get("GLMN_WEIGHTS_NO_EXT"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        # no Cython: compile the shipped C, generated from the .pyx; if that
        # fails too, install with the pure-Python backend only
        ext_modules = [
            Extension(
                "glmn_weights._speedups", ["src/glmn_weights/_speedups.c"], optional=True
            )
        ]
    else:
        ext_modules = cythonize(
            [Extension("glmn_weights._speedups", ["src/glmn_weights/_speedups.pyx"])],
            compiler_directives={"language_level": "3"},
        )

setup(ext_modules=ext_modules)
