# five points, so a product with itself has 25 pairs: more than the 16
# that a sampled carrier is checked on
point a realizers {0}
point b realizers {1}
point c realizers {2}
point d realizers {3}
point e realizers {4}
