"""Per-site exact reference for the start ray: where a ray meets a line.

`test_kernels.reference_ray` finds a nearest walk's first rival from it,
one bisector at a time, to check the fused `scan.ray_run` against.
"""

from wsvoronoi.exact import sign


def ray_line_param(origin, direction, line):
    """Smallest t >= 0 with origin + t*direction on the line.

    origin is an int pair, direction a primitive int pair.  Returns a
    (num, den>0) pair, or None if the ray misses the line.  Raises
    ValueError when the whole ray lies inside the line.
    """
    a, b, c = line
    den = a * direction[0] + b * direction[1]
    num = c - a * origin[0] - b * origin[1]
    if den == 0:
        if num == 0:
            raise ValueError("ray lies inside the line")
        return None
    if den < 0:
        num, den = -num, -den
    if num < 0:
        return None
    return num, den


def cmp_params(t1, t2) -> int:
    """Compare two (num, den>0) parameter pairs."""
    return sign(t1[0] * t2[1] - t2[0] * t1[1])
