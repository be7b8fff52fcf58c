import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # BLAS work is tiny; --jobs runs in parallel
from .cli import main  # noqa: E402  (numpy reads the variable when first imported)

if __name__ == "__main__":
    sys.exit(main())
