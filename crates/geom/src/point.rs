//! Points and vectors in two and three dimensions.

use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or vector) in the horizontal plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates the value from its parts.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: Point2) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist_sq(&self, other: Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Dot product treating both points as vectors from the origin.
    pub fn dot(&self, other: Point2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product `self × other`.
    pub fn cross(&self, other: Point2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Vector length.
    pub fn norm(&self) -> f64 {
        self.dot(*self).sqrt()
    }

    /// Unit vector in the same direction; the zero vector is returned
    /// unchanged rather than producing NaNs.
    pub fn normalized(&self) -> Point2 {
        let n = self.norm();
        if n <= 0.0 {
            *self
        } else {
            *self / n
        }
    }
}

impl Add for Point2 {
    type Output = Point2;
    fn add(self, o: Point2) -> Point2 {
        Point2::new(self.x + o.x, self.y + o.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    fn sub(self, o: Point2) -> Point2 {
        Point2::new(self.x - o.x, self.y - o.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    fn div(self, s: f64) -> Point2 {
        Point2::new(self.x / s, self.y / s)
    }
}

/// A point in 3-space. The z axis is elevation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
    /// Z coordinate (elevation).
    pub z: f64,
}

/// A displacement in 3-space.
pub type Vec3 = Point3;

impl Point3 {
    /// Creates the value from its parts.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Projection onto the horizontal (x, y) plane.
    pub fn xy(&self) -> Point2 {
        Point2::new(self.x, self.y)
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: Point3) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist_sq(&self, other: Point3) -> f64 {
        let d = *self - other;
        d.dot(d)
    }

    /// Dot product.
    pub fn dot(&self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(&self, other: Point3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Vector length.
    pub fn norm(&self) -> f64 {
        self.dot(*self).sqrt()
    }

    /// Unit vector in the same direction; the zero vector is returned
    /// unchanged rather than producing NaNs.
    pub fn normalized(&self) -> Vec3 {
        let n = self.norm();
        if n <= 0.0 {
            *self
        } else {
            *self / n
        }
    }

    /// Linear interpolation: `self + t * (other - self)`.
    pub fn lerp(&self, other: Point3, t: f64) -> Point3 {
        *self + (other - *self) * t
    }
}

impl Add for Point3 {
    type Output = Point3;
    fn add(self, o: Point3) -> Point3 {
        Point3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Point3 {
    type Output = Point3;
    fn sub(self, o: Point3) -> Point3 {
        Point3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    fn mul(self, s: f64) -> Point3 {
        Point3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    fn div(self, s: f64) -> Point3 {
        Point3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point2_distance() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
    }

    #[test]
    fn point2_cross_sign() {
        let a = Point2::new(1.0, 0.0);
        let b = Point2::new(0.0, 1.0);
        assert!(a.cross(b) > 0.0);
        assert!(b.cross(a) < 0.0);
    }

    #[test]
    fn point3_cross_orthogonal() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = x.cross(y);
        assert_eq!(z, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(z.dot(x), 0.0);
        assert_eq!(z.dot(y), 0.0);
    }

    #[test]
    fn point3_lerp_endpoints() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point3::new(2.5, 3.5, 4.5));
    }

    #[test]
    fn normalized_zero_vector_is_safe() {
        let z = Vec3::new(0.0, 0.0, 0.0);
        assert_eq!(z.normalized(), z);
        let v = Vec3::new(0.0, 3.0, 4.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }
}
