//! The [`Observable`] trait: one way to install an [`Obs`] handle.
//!
//! Components that record metrics or trace events implement
//! `Observable` (and get the `with_obs` builder for free); the metrics
//! they write are declared with [`obs_handles!`](crate::obs_handles).

use crate::trace::Obs;

/// Types that record into a shared [`Obs`] handle.
///
/// Implementors hold an `Obs` (usually starting as [`Obs::noop`]) and
/// replace it wholesale when a run installs the shared handle. An
/// implementation must forward the handle to every instrumented
/// sub-component it owns, so one `set_obs` call wires a whole subtree
/// into the same registry and trace ring.
///
/// # Examples
///
/// ```
/// use icache_obs::{obs_handles, Obs, Observable};
///
/// obs_handles! {
///     /// What the layer records.
///     struct LayerObs {
///         issued: Counter = PREFETCH_ISSUED,
///     }
/// }
///
/// struct Layer {
///     obs: LayerObs,
/// }
///
/// impl Observable for Layer {
///     fn set_obs(&mut self, obs: Obs) {
///         self.obs = LayerObs::new(obs);
///     }
/// }
///
/// let obs = Obs::new();
/// let layer = Layer { obs: LayerObs::new(Obs::noop()) }.with_obs(obs.clone());
/// layer.obs.issued.inc(); // no name lookup, no `Obs` lock
/// assert_eq!(obs.counter("prefetch.issued"), 1);
/// assert_eq!(layer.obs.trace_len(), 0); // `Obs` methods through deref
/// ```
pub trait Observable {
    /// Install the shared observability handle, replacing the previous
    /// one (components start with a detached [`Obs::noop`] handle).
    fn set_obs(&mut self, obs: Obs);

    /// Builder-style [`Observable::set_obs`]: consume, install, return.
    fn with_obs(mut self, obs: Obs) -> Self
    where
        Self: Sized,
    {
        self.set_obs(obs);
        self
    }
}

/// Declare a component's typed view of an [`Obs`]: the shared handle
/// plus one resolved write handle (`Counter` / `Gauge` / `Histogram`)
/// per [`decl`](crate::decl) metric the component records. The struct
/// derefs to [`Obs`] (for `emit`, and for handing clones on), so a
/// component keeps one field and replaces it wholesale in `set_obs` —
/// see the example on [`Observable`].
#[macro_export]
macro_rules! obs_handles {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($field:ident: $handle:ident = $metric:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        $vis struct $name {
            obs: $crate::Obs,
            $($vis $field: $crate::$handle,)*
        }

        impl $name {
            /// Resolve every handle against `obs`.
            $vis fn new(obs: $crate::Obs) -> Self {
                $name {
                    $($field: obs.handle($crate::decl::$metric),)*
                    obs,
                }
            }
        }

        impl std::ops::Deref for $name {
            type Target = $crate::Obs;
            fn deref(&self) -> &$crate::Obs {
                &self.obs
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe {
        obs: Obs,
    }

    impl Observable for Probe {
        fn set_obs(&mut self, obs: Obs) {
            self.obs = obs;
        }
    }

    #[test]
    fn with_obs_installs_the_handle() {
        let shared = Obs::new();
        let p = Probe { obs: Obs::noop() }.with_obs(shared.clone());
        p.obs.inc("probe.hits");
        assert_eq!(shared.counter("probe.hits"), 1);
    }

    #[test]
    fn set_obs_replaces_a_previous_handle() {
        let first = Obs::new();
        let second = Obs::new();
        let mut p = Probe { obs: Obs::noop() }.with_obs(first.clone());
        p.set_obs(second.clone());
        p.obs.inc("probe.hits");
        assert_eq!(first.counter("probe.hits"), 0);
        assert_eq!(second.counter("probe.hits"), 1);
    }
}
