import hypothesis.strategies as st
from hypothesis import settings

from proxydet.geometry import Box

settings.register_profile("default", deadline=None)
settings.load_profile("default")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw, min_size: float = 0.0):
    x1 = draw(st.floats(min_value=0.0, max_value=1.0 - min_size))
    y1 = draw(st.floats(min_value=0.0, max_value=1.0 - min_size))
    x2 = draw(st.floats(min_value=min(x1 + min_size, 1.0), max_value=1.0))
    y2 = draw(st.floats(min_value=min(y1 + min_size, 1.0), max_value=1.0))
    return Box(x1, y1, x2, y2)


@st.composite
def center_boxes(draw):
    """A center/size tuple (cx, cy, w, h), each component in [0, 1]."""
    return (draw(unit), draw(unit), draw(unit), draw(unit))


# IoU and probability thresholds the exactness tests sweep
THRESHOLDS = (0.0, 0.03, 0.5, 1.0)

# a coarse grid makes tied scores, shared edges and zero-area boxes common
_grid = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
_coordinate = st.one_of(_grid, unit)
score = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), unit)


@st.composite
def any_box(draw):
    """A box that is often degenerate or shares edges with other draws."""
    x = sorted([draw(_coordinate), draw(_coordinate)])
    y = sorted([draw(_coordinate), draw(_coordinate)])
    return Box(x[0], y[0], x[1], y[1])
