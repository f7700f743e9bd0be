package experiments

import "lcsf/internal/core"

// The paper's published numbers, kept here so every experiment can print
// paper-vs-measured and EXPERIMENTS.md can be generated mechanically.

// PaperDisparateImpactBoA is the global disparate impact measured on the
// Bank of America data (Section 5.1.1).
const PaperDisparateImpactBoA = 0.962038

// PaperSacharidisUnfairBoA is the number of spatially unfair partitions the
// Sacharidis et al. baseline finds on Bank of America at 100x50
// (Section 5.1.2).
const PaperSacharidisUnfairBoA = 59

// PaperTable1 maps lender name to the number of unfair regions the LC-SF
// framework finds at 100x50 (Table 1).
var PaperTable1 = map[string]int{
	"Bank of America":           493,
	"Wells Fargo":               569,
	"United Wholesale Mortgage": 238,
	"Loan Depot":                899,
}

// PaperTable2 maps grid resolution to the number of unfair region pairs for
// the Bank of America dataset (Table 2).
var PaperTable2 = map[core.GridSpec]int{
	{Cols: 10, Rows: 10}: 65, {Cols: 10, Rows: 20}: 146, {Cols: 10, Rows: 30}: 190,
	{Cols: 20, Rows: 20}: 231, {Cols: 10, Rows: 50}: 274, {Cols: 20, Rows: 30}: 325,
	{Cols: 20, Rows: 40}: 299, {Cols: 50, Rows: 20}: 311, {Cols: 40, Rows: 30}: 450,
	{Cols: 30, Rows: 50}: 535, {Cols: 40, Rows: 40}: 583, {Cols: 90, Rows: 30}: 464,
	{Cols: 70, Rows: 40}: 447, {Cols: 90, Rows: 40}: 442, {Cols: 80, Rows: 50}: 431,
	{Cols: 90, Rows: 50}: 430, {Cols: 100, Rows: 50}: 493,
}

// PaperTable3 maps grid resolution to the number of unfair region pairs for
// the food-access dataset (Table 3). The paper lists 90x50 twice with the
// same value.
var PaperTable3 = map[core.GridSpec]int{
	{Cols: 10, Rows: 10}: 7, {Cols: 10, Rows: 20}: 22, {Cols: 10, Rows: 30}: 42,
	{Cols: 10, Rows: 40}: 53, {Cols: 20, Rows: 20}: 41, {Cols: 10, Rows: 50}: 51,
	{Cols: 30, Rows: 20}: 73, {Cols: 40, Rows: 20}: 103, {Cols: 50, Rows: 50}: 18,
	{Cols: 90, Rows: 50}: 13, {Cols: 70, Rows: 40}: 14, {Cols: 100, Rows: 30}: 15,
	{Cols: 100, Rows: 50}: 5,
}

// PaperTable4 maps grid resolution to the number of unfair region pairs for
// Bank of America with statistical parity as the dissimilarity metric
// (Table 4).
var PaperTable4 = map[core.GridSpec]int{
	{Cols: 10, Rows: 10}: 69, {Cols: 10, Rows: 20}: 150, {Cols: 10, Rows: 30}: 174,
	{Cols: 20, Rows: 20}: 290, {Cols: 10, Rows: 50}: 316, {Cols: 20, Rows: 30}: 281,
	{Cols: 20, Rows: 40}: 350, {Cols: 50, Rows: 20}: 784, {Cols: 40, Rows: 30}: 553,
	{Cols: 30, Rows: 50}: 532, {Cols: 40, Rows: 40}: 539, {Cols: 90, Rows: 30}: 417,
	{Cols: 70, Rows: 40}: 644, {Cols: 90, Rows: 40}: 837, {Cols: 80, Rows: 50}: 674,
	{Cols: 90, Rows: 50}: 684, {Cols: 100, Rows: 50}: 740,
}

// PaperFoodAccessHeadline is the number of unfair regions the framework
// finds at 20x20 in the food-access use case (Section 4.2.1), roughly 10% of
// the 400 partitions.
const PaperFoodAccessHeadline = 41
