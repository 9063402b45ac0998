// Package fovr is a from-scratch Go reproduction of "Scan Without a
// Glance: Towards Content-Free Crowd-Sourced Mobile Video Retrieval
// System" (ICPP 2015): FoV descriptors, real-time video segmentation, a
// 3-D R-tree spatio-temporal index, rank-based retrieval, and the full
// evaluation harness that regenerates every figure of the paper.
//
// See README.md for the tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for measured results; the implementation lives under
// internal/, with the provider side in internal/client and the cloud in
// internal/server, which answers in process as well as over HTTP.
package fovr
