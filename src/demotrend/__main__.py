import gc
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # BLAS work is tiny; --jobs runs in parallel
# The ~34,000 objects that importing numpy and the package leaves behind live
# until exit. Collect nothing while importing, then move them to the permanent
# generation, which the collections of the run, of forked --jobs workers and
# of interpreter exit all skip. Library imports leave the collector alone.
gc.disable()
try:
    from .cli import main  # noqa: E402  (numpy reads the variable when first imported)

    gc.freeze()
finally:
    gc.enable()

if __name__ == "__main__":
    sys.exit(main())
