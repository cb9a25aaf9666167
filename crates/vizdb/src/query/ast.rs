//! The query abstract syntax tree.
//!
//! A [`Query`] is the middleware-facing description of a visualization request: a base
//! table, a conjunction of filtering predicates (keyword / temporal / spatial /
//! numeric), an optional join with a dimension table, and an output shape (raw points
//! for scatterplots or binned counts for heatmaps / choropleth maps).

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::types::{GeoRect, NumRange, TimeRange, Timestamp};

/// One conjunctive filtering condition over a single attribute of the base table.
///
/// `attr` is the column index in the table schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// `column contains "<keyword>"` over a text column. The keyword is stored as a
    /// plain string and resolved to a token id against the table dictionary when the
    /// query is planned.
    KeywordContains {
        /// Text column index.
        attr: usize,
        /// Search keyword (single token).
        keyword: String,
    },
    /// `column BETWEEN start AND end` over a timestamp column.
    TimeRange {
        /// Timestamp column index.
        attr: usize,
        /// Inclusive time interval.
        range: TimeRange,
    },
    /// `column IN <rect>` over a geo column.
    SpatialRange {
        /// Geo column index.
        attr: usize,
        /// Query rectangle.
        rect: GeoRect,
    },
    /// `column BETWEEN lo AND hi` over an int / float column.
    NumericRange {
        /// Numeric column index.
        attr: usize,
        /// Inclusive numeric interval.
        range: NumRange,
    },
}

impl Predicate {
    /// Convenience constructor for a keyword predicate.
    pub fn keyword(attr: usize, keyword: impl Into<String>) -> Self {
        Predicate::KeywordContains {
            attr,
            keyword: keyword.into(),
        }
    }

    /// Convenience constructor for a temporal range predicate.
    pub fn time_range(attr: usize, start: Timestamp, end: Timestamp) -> Self {
        Predicate::TimeRange {
            attr,
            range: TimeRange::new(start, end),
        }
    }

    /// Convenience constructor for a spatial range predicate.
    pub fn spatial_range(attr: usize, rect: GeoRect) -> Self {
        Predicate::SpatialRange { attr, rect }
    }

    /// Convenience constructor for a numeric range predicate.
    pub fn numeric_range(attr: usize, lo: f64, hi: f64) -> Self {
        Predicate::NumericRange {
            attr,
            range: NumRange::new(lo, hi),
        }
    }

    /// The attribute (column index) this predicate filters on.
    pub fn attr(&self) -> usize {
        match self {
            Predicate::KeywordContains { attr, .. }
            | Predicate::TimeRange { attr, .. }
            | Predicate::SpatialRange { attr, .. }
            | Predicate::NumericRange { attr, .. } => *attr,
        }
    }

    /// Short kind label used in plan explanations and feature vectors.
    pub fn kind(&self) -> &'static str {
        match self {
            Predicate::KeywordContains { .. } => "keyword",
            Predicate::TimeRange { .. } => "time",
            Predicate::SpatialRange { .. } => "spatial",
            Predicate::NumericRange { .. } => "numeric",
        }
    }
}

/// Grid specification for binned outputs (heatmaps / choropleth maps). Matches the
/// paper's `GROUP BY BIN_ID(Location)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinGrid {
    /// Region covered by the grid.
    pub extent: GeoRect,
    /// Number of cells along the longitude axis.
    pub cols: u32,
    /// Number of cells along the latitude axis.
    pub rows: u32,
}

impl BinGrid {
    /// Creates a grid over `extent` with `cols x rows` cells.
    pub fn new(extent: GeoRect, cols: u32, rows: u32) -> Self {
        Self { extent, cols, rows }
    }

    /// Largest number of cells a grid may have: bin ids are `u32`.
    pub const MAX_CELLS: u64 = 1 << 32;

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        (self.cols as usize).saturating_mul(self.rows as usize)
    }

    /// Checks that every cell has a `u32` bin id: both dimensions non-zero
    /// and at most [`BinGrid::MAX_CELLS`] cells. Execution calls this before
    /// binning any row.
    pub fn validate(&self) -> Result<()> {
        if self.cols == 0 || self.rows == 0 {
            return Err(Error::InvalidQuery(format!(
                "bin grid {}x{} has no cells",
                self.cols, self.rows
            )));
        }
        if u64::from(self.cols) * u64::from(self.rows) > Self::MAX_CELLS {
            return Err(Error::InvalidQuery(format!(
                "bin grid {}x{} exceeds {} cells",
                self.cols,
                self.rows,
                Self::MAX_CELLS
            )));
        }
        Ok(())
    }

    /// Bin id of a point, or `None` when the point falls outside the extent
    /// or the grid has no cells. Total: an invalid grid (see
    /// [`BinGrid::validate`]) yields `None`, never an underflowed or wrapped
    /// id.
    pub fn bin_of(&self, lon: f64, lat: f64) -> Option<u32> {
        if self.extent.is_empty() || self.cols == 0 || self.rows == 0 {
            return None;
        }
        if lon < self.extent.min_lon
            || lon > self.extent.max_lon
            || lat < self.extent.min_lat
            || lat > self.extent.max_lat
        {
            return None;
        }
        let fx = (lon - self.extent.min_lon) / self.extent.width().max(f64::EPSILON);
        let fy = (lat - self.extent.min_lat) / self.extent.height().max(f64::EPSILON);
        let col = ((fx * self.cols as f64) as u32).min(self.cols - 1);
        let row = ((fy * self.rows as f64) as u32).min(self.rows - 1);
        u32::try_from(u64::from(row) * u64::from(self.cols) + u64::from(col)).ok()
    }
}

/// What the query returns to the frontend.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OutputKind {
    /// Raw `(id, point)` rows, e.g. for a scatterplot (`SELECT Id, Location ...`).
    Points {
        /// Id column index.
        id_attr: usize,
        /// Geo column index to plot.
        point_attr: usize,
    },
    /// Binned counts, e.g. for a heatmap
    /// (`SELECT BIN_ID, COUNT(*) ... GROUP BY BIN_ID(Location)`).
    BinnedCounts {
        /// Geo column index to bin.
        point_attr: usize,
        /// Binning grid.
        grid: BinGrid,
    },
    /// Only the number of matching rows (used for validation and COUNT(*) probes).
    Count,
}

/// An equi-join with a dimension table (e.g. `tweets.user_id = users.id`) plus
/// filtering predicates on the dimension table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Dimension table name.
    pub right_table: String,
    /// Foreign-key column index in the base (left) table.
    pub left_attr: usize,
    /// Key column index in the dimension (right) table.
    pub right_attr: usize,
    /// Conjunctive predicates evaluated on the dimension table.
    pub right_predicates: Vec<Predicate>,
}

/// A complete visualization query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// Base (fact) table name.
    pub table: String,
    /// Conjunctive predicates over the base table.
    pub predicates: Vec<Predicate>,
    /// Optional join with a dimension table.
    pub join: Option<JoinSpec>,
    /// Output shape.
    pub output: OutputKind,
    /// Optional LIMIT on the number of produced rows (before binning).
    pub limit: Option<usize>,
}

impl Query {
    /// Starts a query on `table` that returns a bare count; use the builder methods to
    /// add predicates and set the output.
    pub fn select(table: impl Into<String>) -> Self {
        Self {
            table: table.into(),
            predicates: Vec::new(),
            join: None,
            output: OutputKind::Count,
            limit: None,
        }
    }

    /// Adds a predicate (builder style).
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Sets the output shape (builder style).
    pub fn output(mut self, output: OutputKind) -> Self {
        self.output = output;
        self
    }

    /// Sets the join specification (builder style).
    pub fn join_with(mut self, join: JoinSpec) -> Self {
        self.join = Some(join);
        self
    }

    /// Sets a LIMIT (builder style).
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Number of base-table predicates.
    pub fn predicate_count(&self) -> usize {
        self.predicates.len()
    }

    /// Returns `true` when the query joins two tables.
    pub fn is_join(&self) -> bool {
        self.join.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_predicates() {
        let q = Query::select("tweets")
            .filter(Predicate::keyword(3, "covid"))
            .filter(Predicate::time_range(1, 0, 86_400))
            .filter(Predicate::spatial_range(
                2,
                GeoRect::new(-124.4, 32.5, -114.1, 42.0),
            ));
        assert_eq!(q.predicate_count(), 3);
        assert!(!q.is_join());
        assert_eq!(q.predicates[0].kind(), "keyword");
        assert_eq!(q.predicates[1].attr(), 1);
    }

    #[test]
    fn join_builder() {
        let q = Query::select("tweets").join_with(JoinSpec {
            right_table: "users".into(),
            left_attr: 5,
            right_attr: 0,
            right_predicates: vec![Predicate::numeric_range(2, 100.0, 5000.0)],
        });
        assert!(q.is_join());
        assert_eq!(q.join.as_ref().unwrap().right_predicates.len(), 1);
    }

    #[test]
    fn bin_grid_assigns_cells() {
        let grid = BinGrid::new(GeoRect::new(0.0, 0.0, 10.0, 10.0), 10, 10);
        assert_eq!(grid.cell_count(), 100);
        assert_eq!(grid.bin_of(0.5, 0.5), Some(0));
        assert_eq!(grid.bin_of(9.99, 9.99), Some(99));
        assert_eq!(grid.bin_of(5.0, 0.0), Some(5));
        assert_eq!(grid.bin_of(20.0, 5.0), None);
    }

    #[test]
    fn bin_grid_edges_clamp_to_last_cell() {
        let grid = BinGrid::new(GeoRect::new(0.0, 0.0, 10.0, 10.0), 4, 4);
        assert_eq!(grid.bin_of(10.0, 10.0), Some(15));
    }

    #[test]
    fn degenerate_grids_bin_nothing_and_fail_validation() {
        let extent = GeoRect::new(0.0, 0.0, 10.0, 10.0);
        for (cols, rows) in [(0, 4), (4, 0), (0, 0)] {
            let grid = BinGrid::new(extent, cols, rows);
            assert_eq!(grid.bin_of(5.0, 5.0), None, "{cols}x{rows}");
            assert_eq!(grid.bin_of(10.0, 10.0), None, "{cols}x{rows}");
            assert!(matches!(grid.validate(), Err(Error::InvalidQuery(_))));
        }
        assert!(BinGrid::new(extent, 4, 4).validate().is_ok());
    }

    #[test]
    fn huge_grids_never_alias_bin_ids() {
        let extent = GeoRect::new(0.0, 0.0, 10.0, 10.0);
        // 100000 x 100000 cells: `row * cols` overflows u32.
        let grid = BinGrid::new(extent, 100_000, 100_000);
        assert!(matches!(grid.validate(), Err(Error::InvalidQuery(_))));
        assert_eq!(grid.bin_of(0.0, 0.0), Some(0));
        assert_eq!(grid.bin_of(10.0, 10.0), None, "id past u32::MAX");
        // Exactly 2^32 cells is the largest valid grid; its last id fits.
        let widest = BinGrid::new(extent, 1 << 16, 1 << 16);
        assert!(widest.validate().is_ok());
        assert_eq!(widest.bin_of(10.0, 10.0), Some(u32::MAX));
        let max = BinGrid::new(extent, u32::MAX, u32::MAX);
        assert!(max.validate().is_err());
    }

    #[test]
    fn predicate_constructors_normalise_ranges() {
        let p = Predicate::numeric_range(0, 10.0, -5.0);
        match p {
            Predicate::NumericRange { range, .. } => {
                assert_eq!(range.lo, -5.0);
                assert_eq!(range.hi, 10.0);
            }
            _ => unreachable!(),
        }
        let t = Predicate::time_range(0, 100, 50);
        match t {
            Predicate::TimeRange { range, .. } => assert_eq!(range.start, 50),
            _ => unreachable!(),
        }
    }

    #[test]
    fn kinds_cover_all_variants() {
        let preds = [
            Predicate::keyword(0, "x"),
            Predicate::time_range(0, 0, 1),
            Predicate::spatial_range(0, GeoRect::new(0.0, 0.0, 1.0, 1.0)),
            Predicate::numeric_range(0, 0.0, 1.0),
        ];
        let kinds: Vec<_> = preds.iter().map(|p| p.kind()).collect();
        assert_eq!(kinds, vec!["keyword", "time", "spatial", "numeric"]);
    }
}
