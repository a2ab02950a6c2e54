//! Saffir-Simpson hurricane categories.

use std::fmt;

/// Saffir-Simpson hurricane category.
///
/// The case study in the paper simulates a **Category 2** hurricane
/// striking Oahu. Categories carry typical central-pressure-deficit
/// ranges used to sample storm intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// 33-42 m/s sustained winds.
    Cat1,
    /// 43-49 m/s sustained winds (the paper's scenario).
    Cat2,
    /// 50-58 m/s sustained winds.
    Cat3,
    /// 58-70 m/s sustained winds.
    Cat4,
    /// >70 m/s sustained winds.
    Cat5,
}

impl Category {
    /// All categories, weakest first.
    pub const ALL: [Category; 5] = [
        Category::Cat1,
        Category::Cat2,
        Category::Cat3,
        Category::Cat4,
        Category::Cat5,
    ];

    /// Typical central pressure deficit range (hPa below ambient).
    pub fn pressure_deficit_range_hpa(self) -> (f64, f64) {
        match self {
            Category::Cat1 => (20.0, 33.0),
            Category::Cat2 => (33.0, 48.0),
            Category::Cat3 => (48.0, 65.0),
            Category::Cat4 => (65.0, 90.0),
            Category::Cat5 => (90.0, 120.0),
        }
    }

    /// Numeric category (1-5).
    pub(crate) fn number(self) -> u8 {
        match self {
            Category::Cat1 => 1,
            Category::Cat2 => 2,
            Category::Cat3 => 3,
            Category::Cat4 => 4,
            Category::Cat5 => 5,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Category {}", self.number())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_deficit_increases_with_category() {
        let mut prev = 0.0;
        for cat in Category::ALL {
            let (lo, hi) = cat.pressure_deficit_range_hpa();
            assert!(lo < hi);
            assert!(lo >= prev, "{cat}");
            prev = lo;
        }
    }

    #[test]
    fn display_and_number() {
        assert_eq!(Category::Cat2.to_string(), "Category 2");
        assert_eq!(Category::Cat5.number(), 5);
    }

    #[test]
    fn ordering_matches_intensity() {
        assert!(Category::Cat1 < Category::Cat2);
        assert!(Category::Cat4 < Category::Cat5);
    }
}
