//! Export wafer maps for visual inspection: binary PGM images (the
//! format used to eyeball Fig. 1 and Fig. 4 reproductions) and a
//! compact ASCII rendering for terminals and test failure output.

use std::io::{self, Write};
use std::path::Path;

use crate::{Die, WaferMap};

/// Write a wafer map as a binary PGM (P5) image using the WM-811K
/// pixel levels (0 / 127 / 255), magnified by `scale` so small die
/// grids remain visible in image viewers.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Panics
///
/// Panics if `scale == 0`.
///
/// # Example
///
/// ```no_run
/// use wafermap::{io::write_pgm, WaferMap};
///
/// # fn main() -> std::io::Result<()> {
/// let map = WaferMap::blank(32, 32);
/// let mut buf = Vec::new();
/// write_pgm(&map, 4, &mut buf)?;
/// assert!(buf.starts_with(b"P5"));
/// # Ok(())
/// # }
/// ```
pub fn write_pgm<W: Write>(map: &WaferMap, scale: usize, mut writer: W) -> io::Result<()> {
    assert!(scale > 0, "scale must be non-zero");
    let w = map.width() * scale;
    let h = map.height() * scale;
    write!(writer, "P5\n{w} {h}\n255\n")?;
    let mut row = Vec::with_capacity(w);
    for y in 0..map.height() {
        row.clear();
        for x in 0..map.width() {
            let level = map.get(x, y).pixel_level();
            for _ in 0..scale {
                row.push(level);
            }
        }
        for _ in 0..scale {
            writer.write_all(&row)?;
        }
    }
    Ok(())
}

/// Write a wafer map to a PGM file at `path` (see [`write_pgm`]).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_pgm<P: AsRef<Path>>(map: &WaferMap, scale: usize, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_pgm(map, scale, io::BufWriter::new(file))
}

/// Render a wafer map as ASCII art: `' '` off-wafer, `'.'` pass,
/// `'#'` fail. One line per die row.
///
/// # Example
///
/// ```
/// use wafermap::{io::to_ascii, Die, WaferMap};
///
/// let mut map = WaferMap::blank(8, 8);
/// map.set(4, 4, Die::Fail);
/// let art = to_ascii(&map);
/// assert!(art.contains('#'));
/// assert_eq!(art.lines().count(), 8);
/// ```
#[must_use]
pub fn to_ascii(map: &WaferMap) -> String {
    let mut out = String::with_capacity((map.width() + 1) * map.height());
    for y in 0..map.height() {
        for x in 0..map.width() {
            out.push(match map.get(x, y) {
                Die::OffWafer => ' ',
                Die::Pass => '.',
                Die::Fail => '#',
            });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_header_and_size_are_correct() {
        let map = WaferMap::blank(10, 10);
        let mut buf = Vec::new();
        write_pgm(&map, 3, &mut buf).expect("write to vec");
        let header_end = buf.windows(4).position(|w| w == b"255\n").expect("header") + 4;
        assert_eq!(&buf[..3], b"P5\n");
        assert_eq!(buf.len() - header_end, 30 * 30);
    }

    #[test]
    fn pgm_uses_canonical_levels_only() {
        let mut map = WaferMap::blank(8, 8);
        map.set(4, 4, Die::Fail);
        let mut buf = Vec::new();
        write_pgm(&map, 1, &mut buf).expect("write to vec");
        let header_end = buf.windows(4).position(|w| w == b"255\n").expect("header") + 4;
        for &b in &buf[header_end..] {
            assert!(b == 0 || b == 127 || b == 255, "bad pixel {b}");
        }
    }

    #[test]
    fn ascii_marks_fail_locations() {
        let mut map = WaferMap::blank(6, 6);
        map.set(3, 3, Die::Fail);
        let art = to_ascii(&map);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines[3].as_bytes()[3], b'#');
    }

    #[test]
    fn ascii_corner_is_off_wafer() {
        let map = WaferMap::blank(12, 12);
        let art = to_ascii(&map);
        assert_eq!(art.as_bytes()[0], b' ');
    }
}
