"""The stream contract: the numpy Generator draws every seeded test and gate
rests on, pinned by hash.  NumPy may change a distribution's stream in a
release (NEP 19); this test then names the method and the numpy version,
so the change is not read as a sampler defect when the seeded gates move."""
import hashlib

import numpy as np
import pytest

from conftest import seeded

N = 1000
# each draw in the shape a sampler takes it, from its own fresh stream
DRAWS = {
    # Ferguson-Klass arrivals, and exponential(scale=1.0), which
    # multiplies the same draws by 1.0
    "standard_exponential": lambda rng: rng.standard_exponential(size=N),
    "exponential": lambda rng: rng.exponential(size=N),
    # the tilted-stable draw's seven uniforms a round
    "random7": lambda rng: rng.random(7),
    # the keep tests
    "random": lambda rng: rng.random(N),
    # locations and the thinning
    "uniform": lambda rng: rng.uniform(-1.0, 501.0, size=N),
    # extended gamma's bulk: one scalar draw, on both sides of shape 1
    "gamma": lambda rng: [rng.gamma(shape, 0.5) for shape in (0.3, 1.0, 7.5, 500.0)],
}
SHA256 = {
    "standard_exponential": "de786bf0cbff804627671a474db1ae0060d5de575ad166292aaaa354b216e548",
    "exponential": "de786bf0cbff804627671a474db1ae0060d5de575ad166292aaaa354b216e548",
    "random7": "11590dd9eb2f22f940d6011ece25fbbd6b0b73b99317ad4dccc81e3ab7fef989",
    "random": "3b66c049fc66352e25991b85377b70d5b1392cd9a1ba2a57f0a32f1a8c1c9088",
    "uniform": "2396581ee17c20f1dfcf1b1725b2ba441f8ee5f6a107d13de1702474ef70bb63",
    "gamma": "cabb7bf56ca5bdfc147802c998e8ccc7b33f0f1ef92fa967065ac942aaab444a",
}


@pytest.mark.parametrize("method", sorted(DRAWS))
def test_generator_streams_are_pinned(method):
    values = np.asarray(DRAWS[method](seeded(3100)), dtype="<f8")
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == SHA256[method], (
        f"numpy {np.__version__} draws another Generator {method} stream than the "
        f"numpy 2.4.6 the seeded gates were measured with (README): every seeded "
        f"value is suspect before any sampler is")
