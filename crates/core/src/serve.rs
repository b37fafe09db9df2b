//! The socket-free leaf module left from the retired `repro serve` leg:
//! the seeded network-fault plan ([`chaos`]).
//!
//! The server, its load generator, its chaos soak and its request JSON
//! reader are gone (see CHANGELOG "Removed"); nothing in the workspace
//! calls this module any more. It is kept, with its unit tests, only
//! until a later change deletes it (ROADMAP).

pub mod chaos;
