//! Image rendering for Figure 1: PGM/PPM files and ASCII previews of
//! original vs adversarial examples.

use crate::{EvalError, Result};
use adv_tensor::Tensor;
use std::path::Path;

/// Writes a single NCHW image (batch item 0) to `<stem>.pgm` (binary PGM,
/// 1 channel) or `<stem>.ppm` (binary PPM, 3 interleaved channels).
///
/// # Errors
///
/// Returns [`EvalError::InvalidConfig`] for anything but one 1- or
/// 3-channel image, and I/O errors from the filesystem.
pub fn write_image(image: &Tensor, stem: &str) -> Result<()> {
    let d = image.shape().dims();
    let (magic, ext) = match d {
        [1, 1, _, _] => ("P5", "pgm"),
        [1, 3, _, _] => ("P6", "ppm"),
        _ => {
            return Err(EvalError::InvalidConfig(format!(
                "write_image expects [1,1,h,w] or [1,3,h,w], got {d:?}"
            )))
        }
    };
    let (c, h, w) = (d[1], d[2], d[3]);
    let hw = h * w;
    let v = image.as_slice();
    let mut out = format!("{magic}\n{w} {h}\n255\n").into_bytes();
    for p in 0..hw {
        for ch in 0..c {
            out.push((v[ch * hw + p].clamp(0.0, 1.0) * 255.0).round() as u8);
        }
    }
    let path = format!("{stem}.{ext}");
    if let Some(dir) = Path::new(&path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(())
}

const SHADES: &[u8] = b" .:-=+*#%@";

/// Renders a `[1,c,h,w]` image as ASCII art (channel-averaged luminance).
///
/// # Errors
///
/// Returns [`EvalError::InvalidConfig`] for non-single-item batches.
pub fn ascii_art(image: &Tensor) -> Result<String> {
    let d = image.shape().dims();
    if d.len() != 4 || d[0] != 1 {
        return Err(EvalError::InvalidConfig(format!(
            "ascii_art expects [1,c,h,w], got {:?}",
            d
        )));
    }
    let (c, h, w) = (d[1], d[2], d[3]);
    let hw = h * w;
    let v = image.as_slice();
    let mut out = String::with_capacity(h * (w + 1));
    for y in 0..h {
        for x in 0..w {
            let p = y * w + x;
            let lum: f32 = (0..c).map(|ch| v[ch * hw + p]).sum::<f32>() / c as f32;
            let idx = ((lum.clamp(0.0, 1.0)) * (SHADES.len() - 1) as f32).round() as usize;
            out.push(SHADES[idx] as char);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Two images side by side as ASCII (original | adversarial), with a header.
///
/// # Errors
///
/// Propagates [`ascii_art`] errors and shape mismatches.
pub fn ascii_pair(original: &Tensor, adversarial: &Tensor, header: &str) -> Result<String> {
    let a = ascii_art(original)?;
    let b = ascii_art(adversarial)?;
    let mut out = String::new();
    out.push_str(header);
    out.push('\n');
    for (la, lb) in a.lines().zip(b.lines()) {
        out.push_str(la);
        out.push_str("   |   ");
        out.push_str(lb);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adv_tensor::Shape;

    #[test]
    fn pgm_roundtrip_header() {
        let dir = std::env::temp_dir().join("adv_eval_render_test");
        std::fs::remove_dir_all(&dir).ok();
        let img = Tensor::from_fn(Shape::nchw(1, 1, 4, 6), |i| i as f32 / 23.0);
        let path = dir.join("x.pgm");
        write_image(&img, dir.join("x").to_str().unwrap()).unwrap();
        let data = std::fs::read(&path).unwrap();
        assert!(data.starts_with(b"P5\n6 4\n255\n"));
        assert_eq!(data.len(), b"P5\n6 4\n255\n".len() + 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ppm_interleaves_channels() {
        let dir = std::env::temp_dir().join("adv_eval_render_ppm");
        std::fs::remove_dir_all(&dir).ok();
        // Red-only image: first byte of each pixel 255, others 0.
        let img = Tensor::from_fn(Shape::nchw(1, 3, 2, 2), |i| if i < 4 { 1.0 } else { 0.0 });
        let path = dir.join("x.ppm");
        write_image(&img, dir.join("x").to_str().unwrap()).unwrap();
        let data = std::fs::read(&path).unwrap();
        let header_len = b"P6\n2 2\n255\n".len();
        assert_eq!(&data[header_len..header_len + 3], &[255, 0, 0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ascii_uses_darker_glyphs_for_brighter_pixels() {
        let img = Tensor::from_vec(vec![0.0, 1.0, 0.5, 0.0], Shape::nchw(1, 1, 2, 2)).unwrap();
        let art = ascii_art(&img).unwrap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines[0].chars().next(), Some(' '));
        assert_eq!(lines[0].chars().nth(1), Some('@'));
    }

    #[test]
    fn shape_validation() {
        let batch = Tensor::zeros(Shape::nchw(2, 1, 2, 2));
        assert!(write_image(&batch, "/tmp/never").is_err());
        assert!(ascii_art(&batch).is_err());
        let two_channels = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        assert!(write_image(&two_channels, "/tmp/never").is_err());
    }

    #[test]
    fn pair_renders_side_by_side() {
        let a = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let b = Tensor::ones(Shape::nchw(1, 1, 2, 2));
        let s = ascii_pair(&a, &b, "label 3 -> 8").unwrap();
        assert!(s.starts_with("label 3 -> 8"));
        assert!(s.contains("   |   "));
    }
}
