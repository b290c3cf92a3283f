"""novelcap: caption images containing objects the language model never saw.

The decoder emits a trainable placeholder token wherever an object word
belongs; a per-image key-value memory built from detector outputs maps
appearance features to class labels, and placeholder positions are filled
by querying it with the decoder's hidden state. Training and evaluation
run end-to-end on a synthetic corpus with a deterministic mock detector.
"""
