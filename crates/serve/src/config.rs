//! Named pipeline configurations — the short strings the `dump` command
//! uses to pick a transform: `baseline`, `unroll<k>`, `unmerge`, `uu<k>`,
//! `uu<k>+meld`, `meld`, `heuristic`.

use uu_core::Transform;

/// Parse a config name into a [`Transform`]; `None` if unrecognized.
///
/// Factor suffixes default to 4 when absent or malformed (`uu` ≡ `uu4`),
/// matching the harness's historical `dump --config` behavior.
pub fn parse_config(name: &str) -> Option<Transform> {
    Some(match name {
        "baseline" => Transform::Baseline,
        "unmerge" => Transform::Unmerge,
        "heuristic" => Transform::UuHeuristic(Default::default()),
        "meld" => Transform::Meld,
        c if c.starts_with("unroll") => Transform::Unroll {
            factor: c[6..].parse().unwrap_or(4),
        },
        c if c.starts_with("uu") && c.ends_with("+meld") => Transform::UuMeld {
            factor: c[2..c.len() - 5].parse().unwrap_or(4),
            unmerge: Default::default(),
        },
        c if c.starts_with("uu") => Transform::Uu {
            factor: c[2..].parse().unwrap_or(4),
            unmerge: Default::default(),
        },
        _ => return None,
    })
}

/// The accepted config-name grammar, for usage/error messages.
pub fn config_names() -> &'static str {
    "baseline | unroll<k> | unmerge | uu<k> | uu<k>+meld | meld | heuristic"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recognizes_every_family() {
        assert!(matches!(parse_config("baseline"), Some(Transform::Baseline)));
        assert!(matches!(parse_config("unmerge"), Some(Transform::Unmerge)));
        assert!(matches!(parse_config("meld"), Some(Transform::Meld)));
        assert!(matches!(
            parse_config("unroll8"),
            Some(Transform::Unroll { factor: 8 })
        ));
        assert!(matches!(
            parse_config("uu2"),
            Some(Transform::Uu { factor: 2, .. })
        ));
        assert!(matches!(
            parse_config("uu4+meld"),
            Some(Transform::UuMeld { factor: 4, .. })
        ));
        assert!(matches!(
            parse_config("heuristic"),
            Some(Transform::UuHeuristic(_))
        ));
        assert!(parse_config("turbo").is_none());
        assert!(parse_config("").is_none());
    }

    #[test]
    fn malformed_factors_default_to_four() {
        assert!(matches!(
            parse_config("uu"),
            Some(Transform::Uu { factor: 4, .. })
        ));
        assert!(matches!(
            parse_config("unrollx"),
            Some(Transform::Unroll { factor: 4 })
        ));
    }
}
